//! The metrics registry: counters, gauges, fixed-bucket latency histograms,
//! and a deterministic Prometheus-style text renderer.
//!
//! The runtime counter sets (`StoreStats`, `PoolStats`, `TraceStoreStats`,
//! the executor's `WorkCounters`, the daemon's `DaemonStats`) are each
//! declared once with
//! [`crate::counters!`], which derives the set's atomics, JSON,
//! `register_into(&mut Registry)` and `from_series` from that one
//! declaration; exporters then render the registry instead of every layer
//! hand-rolling its own aggregation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The fixed microsecond bucket upper bounds every latency histogram uses
/// (a final overflow bucket catches everything above the last bound).
/// Sharing one bound set is what makes histogram merging across shards,
/// sessions and daemons plain element-wise addition.
pub const BUCKET_BOUNDS: [u64; 19] = [
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000,
];

/// Bucket count including the overflow bucket.
const BUCKETS: usize = BUCKET_BOUNDS.len() + 1;

/// A thread-safe fixed-bucket latency histogram (microsecond samples).
///
/// Observation is lock-free (relaxed atomics — counters are derived data,
/// exact cross-thread ordering is irrelevant); reading goes through
/// [`Histogram::snapshot`].
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample of `micros`.
    pub fn observe(&self, micros: u64) {
        let index = BUCKET_BOUNDS
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(BUCKETS - 1);
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *out = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// An immutable histogram reading: per-bucket counts plus sum and count.
///
/// Snapshots form a commutative monoid under [`HistogramSnapshot::merge`]
/// (element-wise addition), so shard-local histograms can be combined in
/// any grouping — the associativity the cross-shard tests enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    /// Sum of all observed samples (microseconds).
    pub sum: u64,
    /// Number of observed samples.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Builds a snapshot from raw samples (equivalent to observing each).
    #[must_use]
    pub fn from_samples(samples: &[u64]) -> Self {
        let histogram = Histogram::new();
        for &sample in samples {
            histogram.observe(sample);
        }
        histogram.snapshot()
    }

    /// Element-wise addition — the associative, commutative merge.
    #[must_use]
    pub fn merge(mut self, other: &HistogramSnapshot) -> Self {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.count += other.count;
        self
    }

    /// Cumulative count at and below each bound, Prometheus `le` order
    /// (ending with the `+Inf` bucket, whose cumulative count equals
    /// [`HistogramSnapshot::count`]).
    #[must_use]
    pub fn cumulative(&self) -> [u64; BUCKETS] {
        let mut cumulative = self.buckets;
        for i in 1..BUCKETS {
            cumulative[i] += cumulative[i - 1];
        }
        cumulative
    }

    /// The upper bound of the bucket containing quantile `q` (0.0–1.0):
    /// the smallest bound whose cumulative count reaches `q * count`.
    /// Samples above the last bound report that last finite bound. Returns
    /// 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return BUCKET_BOUNDS
                    .get(index)
                    .copied()
                    .unwrap_or(BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1]);
            }
        }
        BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1]
    }

    /// The non-empty buckets, as the JSON lists them.
    fn nonempty_buckets(&self) -> Vec<Bucket> {
        let bounds = BUCKET_BOUNDS.iter().copied().map(Some).chain([None]);
        bounds
            .zip(self.buckets)
            .filter(|&(_, count)| count > 0)
            .map(|(le, count)| Bucket { le, count })
            .collect()
    }
}

// `p50`…`p99` are bucket-estimated; `buckets` lists the non-empty buckets as
// `{"le":bound,"count":n}` pairs, `"le":null` being the overflow bucket.
crate::impl_to_json! { HistogramSnapshot |h|
    count, sum, p50: h.quantile(0.50), p90: h.quantile(0.90), p95: h.quantile(0.95),
    p99: h.quantile(0.99), buckets: h.nonempty_buckets(),
}

/// One non-empty bucket of a [`HistogramSnapshot`]: upper bound (`None`
/// for the overflow bucket) and sample count.
struct Bucket {
    le: Option<u64>,
    count: u64,
}

crate::impl_to_json! { Bucket |b| le, count }

/// One registry entry key: metric name plus rendered label pairs
/// (`model="skip"`), empty for unlabelled series. Both `String`s so the
/// [`BTreeMap`] ordering makes rendering deterministic.
type SeriesKey = (String, String);

/// A metrics registry: the single schema every layer's counters register
/// into, rendered as Prometheus-style text exposition.
///
/// A registry is built per export (cheap — it is a handful of `BTreeMap`
/// inserts over already-maintained atomic counters), so there is no global
/// registration step and no lifetime coupling between layers.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<SeriesKey, u64>,
    gauges: BTreeMap<SeriesKey, u64>,
    histograms: BTreeMap<SeriesKey, HistogramSnapshot>,
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect::<Vec<_>>()
        .join(",")
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a monotonic counter value.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counter_with(name, &[], value);
    }

    /// Registers a labelled counter value.
    pub fn counter_with(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.counters
            .insert((name.to_string(), render_labels(labels)), value);
    }

    /// Registers a point-in-time gauge value.
    pub fn gauge(&mut self, name: &str, value: u64) {
        self.gauge_with(name, &[], value);
    }

    /// Registers a labelled gauge value.
    pub fn gauge_with(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.gauges
            .insert((name.to_string(), render_labels(labels)), value);
    }

    /// Registers a histogram snapshot.
    pub fn histogram(&mut self, name: &str, snapshot: &HistogramSnapshot) {
        self.histogram_with(name, &[], snapshot);
    }

    /// Registers a labelled histogram snapshot.
    pub fn histogram_with(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        snapshot: &HistogramSnapshot,
    ) {
        self.histograms
            .insert((name.to_string(), render_labels(labels)), *snapshot);
    }

    /// Renders the registry as Prometheus text exposition: one `# TYPE`
    /// line per metric name, series sorted by name then labels, histograms
    /// expanded into cumulative `_bucket{le=...}` series plus `_sum` and
    /// `_count`. Deterministic: the same registry contents always render
    /// the same bytes. [`parse_prometheus`] reads it back.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        fn type_line(out: &mut String, last: &mut Option<String>, name: &str, kind: &str) {
            if last.as_deref() != Some(name) {
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                *last = Some(name.to_string());
            }
        }
        let mut out = String::new();
        for (family, kind) in [(&self.counters, "counter"), (&self.gauges, "gauge")] {
            let mut last = None;
            for ((name, labels), value) in family {
                type_line(&mut out, &mut last, name, kind);
                out.push_str(&format!("{} {value}\n", series_key(name, labels)));
            }
        }
        let mut last = None;
        for ((name, labels), snapshot) in &self.histograms {
            type_line(&mut out, &mut last, name, "histogram");
            let values = snapshot
                .cumulative()
                .into_iter()
                .chain([snapshot.sum, snapshot.count]);
            for (key, value) in histogram_keys(name, labels).iter().zip(values) {
                out.push_str(&format!("{key} {value}\n"));
            }
        }
        out
    }
}

/// The exposition key of one series: the metric name, plus its rendered
/// labels in braces when it has any.
fn series_key(name: &str, labels: &str) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{labels}}}")
    }
}

/// The series keys a histogram expands into: one cumulative `_bucket` per
/// bound (ending with `le="+Inf"`), then `_sum`, then `_count`.
fn histogram_keys(name: &str, labels: &str) -> Vec<String> {
    let prefix = if labels.is_empty() {
        String::new()
    } else {
        format!("{labels},")
    };
    let mut keys: Vec<String> = (0..BUCKETS)
        .map(|index| {
            let le = BUCKET_BOUNDS
                .get(index)
                .map_or_else(|| "+Inf".to_string(), u64::to_string);
            format!("{name}_bucket{{{prefix}le=\"{le}\"}}")
        })
        .collect();
    keys.push(series_key(&format!("{name}_sum"), labels));
    keys.push(series_key(&format!("{name}_count"), labels));
    keys
}

impl HistogramSnapshot {
    /// Rebuilds histogram `name` with rendered `labels` (`model="skip"`,
    /// empty for none) from a parsed exposition — the inverse of the
    /// expansion [`Registry::render_prometheus`] performs. `None` when a
    /// series is missing or the cumulative counts do not add up.
    #[must_use]
    pub fn from_series(
        series: &BTreeMap<String, u64>,
        name: &str,
        labels: &str,
    ) -> Option<HistogramSnapshot> {
        let values = histogram_keys(name, labels)
            .iter()
            .map(|key| series.get(key).copied())
            .collect::<Option<Vec<u64>>>()?;
        let mut snapshot = HistogramSnapshot {
            sum: values[BUCKETS],
            count: values[BUCKETS + 1],
            ..HistogramSnapshot::default()
        };
        let mut below = 0;
        for (bucket, &cumulative) in snapshot.buckets.iter_mut().zip(&values) {
            *bucket = cumulative.checked_sub(below)?;
            below = cumulative;
        }
        (below == snapshot.count).then_some(snapshot)
    }
}

/// Declares a set of runtime counters once and derives everything else
/// from that declaration:
///
/// * the plain snapshot struct (`Copy + Default + Eq`, one `pub u64` field
///   per entry, with the entry's doc);
/// * its `AtomicU64` twin, whose `snapshot()` loads every field and
///   `add(&snapshot)` adds to every field (both relaxed);
/// * `+=` on the snapshot struct, field by field;
/// * `ToJson` and `to_json`, the fields in declared order, through
///   [`crate::impl_to_json!`];
/// * `register_into(&mut Registry)`, each field under its series name;
/// * `from_series(&BTreeMap<String, u64>)`, the inverse over a
///   [`parse_prometheus`] map, where a missing series is an error naming
///   it.
///
/// Each entry reads `field: kind("series_name")`, `kind` being the
/// [`Registry`] method the field registers with: `counter` or `gauge`.
///
/// ```
/// secbranch_obs::counters! {
///     /// A cache's counters.
///     pub struct CacheStats(CacheCounters) {
///         /// Lookups served from the cache.
///         hits: counter("cache_hits_total"),
///         /// Entries held right now.
///         entries: gauge("cache_entries"),
///     }
/// }
///
/// let live = CacheCounters::default();
/// live.hits.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
/// let stats = CacheStats { entries: 5, ..live.snapshot() };
/// assert_eq!(stats.to_json(), r#"{"hits":2,"entries":5}"#);
///
/// let mut registry = secbranch_obs::Registry::new();
/// stats.register_into(&mut registry);
/// let text = registry.render_prometheus();
/// assert!(text.contains("# TYPE cache_entries gauge\ncache_entries 5\n"));
/// let series = secbranch_obs::parse_prometheus(&text).unwrap();
/// assert_eq!(CacheStats::from_series(&series), Ok(stats));
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident($atomic:ident) {
            $($(#[$field_meta:meta])* $field:ident: $kind:ident($series:literal)),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$field_meta])* pub $field: u64,)*
        }

        #[doc = concat!("The live counters a [`", stringify!($name), "`] snapshots.")]
        #[derive(Debug, Default)]
        $vis struct $atomic {
            $($(#[$field_meta])* pub $field: ::std::sync::atomic::AtomicU64,)*
        }

        impl $atomic {
            /// A point-in-time copy of every counter.
            #[must_use]
            pub fn snapshot(&self) -> $name {
                $name {
                    $($field: self.$field.load(::std::sync::atomic::Ordering::Relaxed),)*
                }
            }

            /// Adds every field of `other` to its live counter.
            pub fn add(&self, other: &$name) {
                $(self.$field.fetch_add(other.$field, ::std::sync::atomic::Ordering::Relaxed);)*
            }
        }

        impl ::std::ops::AddAssign for $name {
            fn add_assign(&mut self, other: $name) {
                $(self.$field += other.$field;)*
            }
        }

        $crate::impl_to_json! { $name |s| $($field),* }

        impl $name {
            /// Registers every field into `registry` under its series name.
            /// Derived observability data only — never part of reports,
            /// fingerprints or persistence.
            pub fn register_into(&self, registry: &mut $crate::Registry) {
                $(registry.$kind($series, self.$field);)*
            }

            /// Reads every field back from an exposition parsed by
            /// `secbranch_obs::parse_prometheus`.
            ///
            /// # Errors
            ///
            /// Names the first series the set needs that `series` lacks — a
            /// missing counter is an error, never a silent zero.
            pub fn from_series(
                series: &::std::collections::BTreeMap<String, u64>,
            ) -> Result<Self, String> {
                Ok($name {
                    $($field: $crate::metrics::series_value(series, $series)?,)*
                })
            }
        }
    };
}

/// The value of series `name` in a parsed exposition.
///
/// # Errors
///
/// Names the series when `series` lacks it.
pub fn series_value(series: &BTreeMap<String, u64>, name: &str) -> Result<u64, String> {
    series
        .get(name)
        .copied()
        .ok_or_else(|| format!("the statistics lack the series {name}"))
}

/// Parses a Prometheus text exposition, as [`Registry::render_prometheus`]
/// writes it, into a sorted map from series key (the metric name plus its
/// `{labels}` exactly as rendered) to value.
///
/// Total: any input either parses or fails with an error naming the
/// offending line, never panics. Blank and `#` lines are skipped; every
/// other line must be `key value` with a valid metric name, one closing
/// label brace at the end of the key when it has labels, a value of plain
/// decimal digits that fits a `u64` exactly, and a key not seen before.
///
/// # Errors
///
/// The first line that breaks one of those rules.
pub fn parse_prometheus(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut series = BTreeMap::new();
    for (index, line) in text.lines().enumerate() {
        let fail = |reason| format!("exposition line {}: {reason}", index + 1);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.rsplit_once(' ').ok_or_else(|| fail("no value"))?;
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(fail("value is not a decimal integer"));
        }
        let value: u64 = value.parse().map_err(|_| fail("value overflows u64"))?;
        let name = match key.split_once('{') {
            None => key,
            Some((name, labels)) => match labels.strip_suffix('}') {
                Some(inner) if !inner.contains(['{', '}']) => name,
                _ => return Err(fail("unbalanced label braces")),
            },
        };
        let mut chars = name.chars();
        let valid_start = chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
        if !valid_start || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
            return Err(fail("invalid metric name"));
        }
        if series.insert(key.to_string(), value).is_some() {
            return Err(fail("duplicate series"));
        }
    }
    Ok(series)
}

#[cfg(test)]
// The test's private counter set gets the borrowing `to_json` every exported
// set has; the lint spares only exported types.
#[allow(clippy::wrong_self_convention)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_sum_and_quantiles() {
        let h = Histogram::new();
        for sample in [1, 3, 40, 150, 800, 30_000, 5_000_000] {
            h.observe(sample);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 5_030_994);
        let cumulative = snap.cumulative();
        assert_eq!(cumulative[BUCKETS - 1], 7, "+Inf bucket sees everything");
        assert_eq!(snap.quantile(0.0), 1);
        assert_eq!(snap.quantile(0.5), 200, "150 lands in the le=200 bucket");
        assert_eq!(
            snap.quantile(1.0),
            1_000_000,
            "overflow reports the last finite bound"
        );
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        // Three shard-local histograms over different sample mixes.
        let a = HistogramSnapshot::from_samples(&[1, 7, 300, 40_000]);
        let b = HistogramSnapshot::from_samples(&[2, 2, 9_000_000]);
        let c = HistogramSnapshot::from_samples(&[55, 123_456]);
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        assert_eq!(left, right, "associative");
        assert_eq!(b.merge(&a), a.merge(&b), "commutative");
        assert_eq!(
            left,
            HistogramSnapshot::from_samples(&[1, 7, 300, 40_000, 2, 2, 9_000_000, 55, 123_456]),
            "merging shards equals observing the union"
        );
        assert_eq!(left.merge(&HistogramSnapshot::default()), left, "identity");
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_typed() {
        let mut registry = Registry::new();
        registry.counter("secbranch_requests_total", 3);
        registry.counter_with("secbranch_cells_total", &[("kind", "warm")], 5);
        registry.counter_with("secbranch_cells_total", &[("kind", "cold")], 2);
        registry.gauge("secbranch_queue_depth", 1);
        let snap = HistogramSnapshot::from_samples(&[3, 700]);
        registry.histogram_with("secbranch_cell_micros", &[("model", "skip")], &snap);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE secbranch_requests_total counter\n"));
        assert!(text.contains("secbranch_requests_total 3\n"));
        assert!(text.contains("secbranch_cells_total{kind=\"cold\"} 2\n"));
        assert!(text.contains("secbranch_cells_total{kind=\"warm\"} 5\n"));
        assert!(text.contains("# TYPE secbranch_queue_depth gauge\n"));
        assert!(text.contains("# TYPE secbranch_cell_micros histogram\n"));
        assert!(text.contains("secbranch_cell_micros_bucket{model=\"skip\",le=\"5\"} 1\n"));
        assert!(text.contains("secbranch_cell_micros_bucket{model=\"skip\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("secbranch_cell_micros_sum{model=\"skip\"} 703\n"));
        assert!(text.contains("secbranch_cell_micros_count{model=\"skip\"} 2\n"));
        assert_eq!(
            text.matches("# TYPE secbranch_cells_total").count(),
            1,
            "one TYPE line per family"
        );
        let again = {
            let mut r = Registry::new();
            r.histogram_with("secbranch_cell_micros", &[("model", "skip")], &snap);
            r.counter_with("secbranch_cells_total", &[("kind", "cold")], 2);
            r.counter_with("secbranch_cells_total", &[("kind", "warm")], 5);
            r.counter("secbranch_requests_total", 3);
            r.gauge("secbranch_queue_depth", 1);
            r.render_prometheus()
        };
        assert_eq!(text, again, "insertion order does not matter");
    }

    #[test]
    fn snapshot_json_summarises_percentiles_and_buckets() {
        let snap = HistogramSnapshot::from_samples(&[3, 3, 700]);
        let json = snap.to_json();
        assert!(json.starts_with("{\"count\":3,\"sum\":706,"));
        assert!(json.contains("\"p50\":5"));
        assert!(json.contains("\"buckets\":[{\"le\":5,\"count\":2},{\"le\":1000,\"count\":1}]"));
        let empty = HistogramSnapshot::default().to_json();
        assert!(empty.contains("\"buckets\":[]"));
        let overflowing = HistogramSnapshot::from_samples(&[3, 3, 700, 2_000_000]);
        assert_eq!(
            overflowing.to_json(),
            concat!(
                r#"{"count":4,"sum":2000706,"p50":5,"p90":1000000,"p95":1000000,"#,
                r#""p99":1000000,"buckets":[{"le":5,"count":2},{"le":1000,"count":1},"#,
                r#"{"le":null,"count":1}]}"#,
            )
        );
        assert_eq!(
            empty,
            r#"{"count":0,"sum":0,"p50":0,"p90":0,"p95":0,"p99":0,"buckets":[]}"#
        );
    }

    #[test]
    fn parsing_a_rendering_returns_every_series_of_the_registry() {
        let skip = HistogramSnapshot::from_samples(&[3, 700, 9_000_000]);
        let plain = HistogramSnapshot::from_samples(&[42]);
        let mut registry = Registry::new();
        registry.counter("secbranch_requests_total", u64::MAX);
        registry.counter_with("secbranch_cells_total", &[("kind", "warm")], 5);
        registry.gauge("secbranch_queue_depth", 0);
        registry.histogram_with("secbranch_cell_micros", &[("model", "skip")], &skip);
        registry.histogram("secbranch_build_micros", &plain);
        let series = parse_prometheus(&registry.render_prometheus()).expect("parses");

        assert_eq!(series["secbranch_requests_total"], u64::MAX, "exact u64");
        assert_eq!(series["secbranch_cells_total{kind=\"warm\"}"], 5);
        assert_eq!(series["secbranch_queue_depth"], 0);
        assert_eq!(
            HistogramSnapshot::from_series(&series, "secbranch_cell_micros", "model=\"skip\""),
            Some(skip)
        );
        assert_eq!(
            HistogramSnapshot::from_series(&series, "secbranch_build_micros", ""),
            Some(plain)
        );
        assert_eq!(series.len(), 3 + 2 * (BUCKETS + 2), "nothing else");
        assert_eq!(
            HistogramSnapshot::from_series(&series, "secbranch_cell_micros", "model=\"x\""),
            None
        );
    }

    #[test]
    fn malformed_expositions_are_refused_by_line() {
        let refused = |text: &str| parse_prometheus(text).expect_err(text);
        assert!(refused("a 1\nb").starts_with("exposition line 2:"));
        for text in [
            "a",
            "a ",
            "a -1",
            "a +1",
            "a 1.5",
            "a 18446744073709551616",
            "a{x=\"1\" 1",
            "a{x=\"1\"}} 1",
            "a}{ 1",
            "{x=\"1\"} 1",
            "1a 1",
            "a-b 1",
            "a 1\na 2",
        ] {
            refused(text);
        }
        let series = parse_prometheus("# TYPE a counter\n\na 7\nb{x=\"1 2\"} 8\n").expect("ok");
        assert_eq!(series["a"], 7);
        assert_eq!(series["b{x=\"1 2\"}"], 8);
    }

    crate::counters! {
        /// A two-field set for the arithmetic tests.
        struct PairStats(PairCounters) {
            /// First.
            a: counter("pair_a_total"),
            /// Second.
            b: gauge("pair_b"),
        }
    }

    #[test]
    fn counter_sets_add_field_by_field() {
        let mut sum = PairStats { a: 1, b: 20 };
        sum += PairStats { a: 2, b: 30 };
        assert_eq!(sum, PairStats { a: 3, b: 50 });

        let live = PairCounters::default();
        live.add(&sum);
        live.add(&PairStats { a: 4, b: 0 });
        assert_eq!(live.snapshot(), PairStats { a: 7, b: 50 });

        let mut registry = Registry::new();
        live.snapshot().register_into(&mut registry);
        let series = parse_prometheus(&registry.render_prometheus()).expect("parses");
        assert_eq!(PairStats::from_series(&series), Ok(live.snapshot()));
    }

    #[test]
    fn inconsistent_histogram_series_rebuild_to_nothing() {
        let snap = HistogramSnapshot::from_samples(&[3, 700]);
        let mut registry = Registry::new();
        registry.histogram("h", &snap);
        let series = parse_prometheus(&registry.render_prometheus()).expect("parses");
        let mut shrinking = series.clone();
        shrinking.insert("h_bucket{le=\"+Inf\"}".to_string(), 0);
        assert_eq!(HistogramSnapshot::from_series(&shrinking, "h", ""), None);
        let mut miscounted = series;
        miscounted.insert("h_count".to_string(), 3);
        assert_eq!(HistogramSnapshot::from_series(&miscounted, "h", ""), None);
    }
}
