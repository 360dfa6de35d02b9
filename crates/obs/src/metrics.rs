//! Lock-free metrics: counters, gauges and log₂-bucketed histograms behind a
//! process-wide registry.
//!
//! Recording is always a handful of relaxed atomic operations — no mutex, no
//! allocation — so metrics can sit directly on the query hot path.  The only
//! mutex in this module guards *registration* (looking a metric up by name),
//! which callers do once at startup and keep the returned [`Arc`].
//!
//! Histograms bucket durations by the bit length of their nanosecond value:
//! bucket `b` (for `b ≥ 1`) covers `[2^(b-1), 2^b)` ns and bucket 0 holds
//! exact zeros.  A percentile read reports the bucket's upper bound clamped
//! to the largest observed sample, so a histogram-derived percentile `h`
//! relates to the exact percentile `e` as `e ≤ h ≤ 2e` — at most one bucket
//! of error, never an underestimate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::timing::LatencySummary;

/// Number of histogram buckets: one per possible bit length of a `u64`
/// nanosecond value, plus bucket 0 for exact zeros.
pub const BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down (active connections, queue depth).
///
/// Decrements saturate at zero so a spurious extra decrement can never wrap
/// the gauge to `u64::MAX`.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero.
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)));
    }

    /// Sets the gauge to an absolute value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Sets a duration gauge — one whose family name ends in `_seconds`: it
    /// holds whole nanoseconds and the exposition prints them as seconds.
    pub fn set_duration(&self, d: Duration) {
        self.set(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket index of a nanosecond value: its bit length, clamped to the last
/// bucket.  Zero lands in bucket 0.
#[must_use]
pub fn bucket_index(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of a bucket in nanoseconds.
#[must_use]
pub fn bucket_upper(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b if b >= BUCKETS - 1 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// A log₂-bucketed latency histogram on atomics.
///
/// Unlike the old mutex-guarded `LatencyRing`, concurrent recorders never
/// contend: `record` is three-or-four relaxed atomic RMW operations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one duration sample.
    pub fn record(&self, sample: Duration) {
        let ns = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        self.record_ns(ns);
    }

    /// Records one sample given directly in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap: a sum pegged at u64::MAX is obviously
        // broken in a report, a wrapped one silently lies.  The peg is
        // best-effort (checked after a plain `fetch_add`) so the hot path
        // never pays a compare-exchange loop; the overflow branch fires once
        // per ~584 years of accumulated nanoseconds.
        let before = self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        if before.checked_add(ns).is_none() {
            self.sum_ns.store(u64::MAX, Ordering::Relaxed);
        }
        // `fetch_max` is a compare-exchange loop on most targets; after
        // warm-up almost no sample is a new maximum, so gate it on a load.
        if self.max_ns.load(Ordering::Relaxed) < ns {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the histogram state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }

    /// The `q`-th percentile (0–100) as a duration (bucket upper bound,
    /// clamped to the observed maximum).
    #[must_use]
    pub fn percentile(&self, q: f64) -> Duration {
        self.snapshot().percentile(q)
    }

    /// Standard percentile summary of everything recorded so far.
    #[must_use]
    pub fn summary(&self) -> LatencySummary {
        self.snapshot().summary()
    }
}

/// A point-in-time copy of a [`Histogram`], supporting percentile reads and
/// window deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts.
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds (saturating).
    pub sum_ns: u64,
    /// Largest observed sample in nanoseconds.
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// The `q`-th percentile (0–100) by nearest rank over the buckets.  The
    /// reported value is the containing bucket's upper bound clamped to the
    /// observed maximum, so it never underestimates the exact percentile and
    /// overestimates it by at most 2×.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 100.0);
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= rank {
                return Duration::from_nanos(bucket_upper(bucket).min(self.max_ns));
            }
        }
        Duration::from_nanos(self.max_ns)
    }

    /// Standard percentile summary of the snapshot.
    #[must_use]
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            samples: usize::try_from(self.count).unwrap_or(usize::MAX),
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
            p999: self.percentile(99.9),
            max: Duration::from_nanos(self.max_ns),
        }
    }
}

/// One registered metric's identity: a name plus at most one label pair
/// (`{stage="parse"}`, `{shard="127.0.0.1:7471"}`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    label: Option<(String, String)>,
}

impl Key {
    fn sample_suffix(&self) -> String {
        match &self.label {
            None => String::new(),
            Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
        }
    }
}

/// A registry of named metrics.
///
/// Registration (`counter` / `gauge` / `histogram` / `labeled_histogram`) is
/// idempotent: asking for the same name twice returns the same underlying
/// metric, so independent subsystems can share families.  Registration takes
/// a mutex; the returned `Arc` is then used lock-free.
///
/// A subsystem that counts before it knows its registry (a replica set is
/// built first and bound later) hands over the handles it already increments
/// with [`adopt_counter`](MetricsRegistry::adopt_counter) /
/// [`adopt_gauge`](MetricsRegistry::adopt_gauge): the registry then exposes
/// those very atomics, and a series with several handles reads as their sum.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<Vec<(Key, Arc<Counter>)>>,
    gauges: Mutex<Vec<(Key, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(Key, Arc<Histogram>)>>,
}

fn intern<T: Default>(table: &Mutex<Vec<(Key, Arc<T>)>>, key: Key) -> Arc<T> {
    let mut table = table.lock().expect("metrics registry poisoned");
    if let Some((_, existing)) = table.iter().find(|(k, _)| *k == key) {
        return Arc::clone(existing);
    }
    let created = Arc::new(T::default());
    table.push((key, Arc::clone(&created)));
    created
}

fn adopt<T>(table: &Mutex<Vec<(Key, Arc<T>)>>, key: Key, handle: &Arc<T>) {
    let mut table = table.lock().expect("metrics registry poisoned");
    if !table.iter().any(|(k, h)| *k == key && Arc::ptr_eq(h, handle)) {
        table.push((key, Arc::clone(handle)));
    }
}

/// Reads a table into `(key, value)` pairs, summing the handles of a key.
fn read<T>(table: &Mutex<Vec<(Key, Arc<T>)>>, value: impl Fn(&T) -> u64) -> Vec<(Key, u64)> {
    let mut out: Vec<(Key, u64)> = Vec::new();
    for (key, metric) in table.lock().expect("metrics registry poisoned").iter() {
        match out.iter_mut().find(|(k, _)| k == key) {
            Some((_, sum)) => *sum = sum.saturating_add(value(metric)),
            None => out.push((key.clone(), value(metric))),
        }
    }
    out
}

fn key(name: &str, label: Option<(&str, &str)>) -> Key {
    Key { name: name.to_owned(), label: label.map(|(k, v)| (k.to_owned(), v.to_owned())) }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or looks up) a counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, key(name, None))
    }

    /// Registers (or looks up) one member of a labeled counter family,
    /// e.g. `replica_opens_total{replica="127.0.0.1:7471"}`.
    #[must_use]
    pub fn labeled_counter(&self, name: &str, label: &str, value: &str) -> Arc<Counter> {
        intern(&self.counters, key(name, Some((label, value))))
    }

    /// Exposes `counter` — a handle its owner already increments — under
    /// `name` (and one optional label pair).  Adopting the same handle twice
    /// is a no-op; distinct handles under one key are summed on read.
    pub fn adopt_counter(&self, name: &str, label: Option<(&str, &str)>, counter: &Arc<Counter>) {
        adopt(&self.counters, key(name, label), counter);
    }

    /// Registers (or looks up) a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, key(name, None))
    }

    /// Exposes `gauge` under `name`, as [`adopt_counter`](Self::adopt_counter)
    /// does for counters.
    pub fn adopt_gauge(&self, name: &str, label: Option<(&str, &str)>, gauge: &Arc<Gauge>) {
        adopt(&self.gauges, key(name, label), gauge);
    }

    /// Registers (or looks up) an unlabeled histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, key(name, None))
    }

    /// Registers (or looks up) one member of a labeled histogram family,
    /// e.g. `stage_latency_ns{stage="parse"}`.
    #[must_use]
    pub fn labeled_histogram(&self, name: &str, label: &str, value: &str) -> Arc<Histogram> {
        intern(&self.histograms, key(name, Some((label, value))))
    }

    /// Point-in-time snapshot of every registered metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let histograms = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        MetricsSnapshot {
            counters: read(&self.counters, Counter::value),
            gauges: read(&self.gauges, Gauge::value),
            histograms,
        }
    }

    /// Renders Prometheus-style text exposition: one `# TYPE` line per metric
    /// family, then the samples.  Histograms emit cumulative `_bucket{le=…}`
    /// lines (non-empty buckets plus `+Inf`), `_sum` and `_count`.  All
    /// durations are integer nanoseconds, hence the `_ns` naming convention;
    /// the one exception is a gauge named `*_seconds`
    /// ([`Gauge::set_duration`]), printed in seconds.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// A point-in-time copy of a whole [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    counters: Vec<(Key, u64)>,
    gauges: Vec<(Key, u64)>,
    histograms: Vec<(Key, HistogramSnapshot)>,
}

/// The entry of `series` called `name` with exactly the label pair `label`.
fn lookup<'a, V>(series: &'a [(Key, V)], name: &str, label: Option<(&str, &str)>) -> Option<&'a V> {
    series
        .iter()
        .find(|(k, _)| {
            k.name == name && k.label.as_ref().map(|(lk, lv)| (lk.as_str(), lv.as_str())) == label
        })
        .map(|(_, v)| v)
}

impl MetricsSnapshot {
    /// Value of a named counter (zero when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        lookup(&self.counters, name, None).copied().unwrap_or(0)
    }

    /// Value of a named gauge (zero when absent).
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        lookup(&self.gauges, name, None).copied().unwrap_or(0)
    }

    /// Value of one member of a labeled counter family (zero when absent).
    #[must_use]
    pub fn labeled_counter(&self, name: &str, label: (&str, &str)) -> u64 {
        lookup(&self.counters, name, Some(label)).copied().unwrap_or(0)
    }

    /// Value of one member of a labeled gauge family (zero when absent).
    #[must_use]
    pub fn labeled_gauge(&self, name: &str, label: (&str, &str)) -> u64 {
        lookup(&self.gauges, name, Some(label)).copied().unwrap_or(0)
    }

    /// Snapshot of a named histogram, honouring an optional label pair.
    #[must_use]
    pub fn histogram(&self, name: &str, label: Option<(&str, &str)>) -> Option<&HistogramSnapshot> {
        lookup(&self.histograms, name, label)
    }

    /// Renders the snapshot as Prometheus-style text exposition.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let scalar = |out: &mut String, key: &Key, value: &u64| {
            if key.name.ends_with("_seconds") {
                let seconds = *value as f64 / 1e9;
                out.push_str(&format!("{}{} {seconds:.6}\n", key.name, key.sample_suffix()));
            } else {
                out.push_str(&format!("{}{} {value}\n", key.name, key.sample_suffix()));
            }
        };
        render_families(&mut out, "counter", &self.counters, scalar);
        render_families(&mut out, "gauge", &self.gauges, scalar);
        render_families(&mut out, "histogram", &self.histograms, |out, key, hist| {
            let label_prefix = match &key.label {
                None => String::new(),
                Some((k, v)) => format!("{k}=\"{v}\","),
            };
            let mut cumulative = 0u64;
            for (bucket, &n) in hist.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative = cumulative.saturating_add(n);
                out.push_str(&format!(
                    "{}_bucket{{{}le=\"{}\"}} {}\n",
                    key.name,
                    label_prefix,
                    bucket_upper(bucket),
                    cumulative
                ));
            }
            out.push_str(&format!(
                "{}_bucket{{{}le=\"+Inf\"}} {}\n",
                key.name, label_prefix, hist.count
            ));
            out.push_str(&format!("{}_sum{} {}\n", key.name, key.sample_suffix(), hist.sum_ns));
            out.push_str(&format!("{}_count{} {}\n", key.name, key.sample_suffix(), hist.count));
        });
        out
    }
}

/// Walks `series` in key order, writing one `# TYPE` line ahead of each
/// family and `sample`'s lines for each member.
fn render_families<V>(
    out: &mut String,
    kind: &str,
    series: &[(Key, V)],
    sample: impl Fn(&mut String, &Key, &V),
) {
    let mut sorted: Vec<_> = series.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut previous_family = None::<&str>;
    for (key, value) in sorted {
        if previous_family != Some(key.name.as_str()) {
            out.push_str(&format!("# TYPE {} {kind}\n", key.name));
            previous_family = Some(key.name.as_str());
        }
        sample(out, key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("queries_total");
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        // Idempotent registration: same underlying atomic.
        assert_eq!(registry.counter("queries_total").value(), 5);

        let g = registry.gauge("conns_active");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.value(), 1);
        g.dec();
        g.dec(); // saturates at zero instead of wrapping
        assert_eq!(g.value(), 0);
        g.set(7);
        assert_eq!(g.value(), 7);
    }

    #[test]
    fn duration_gauges_are_printed_in_seconds() {
        let registry = MetricsRegistry::new();
        registry.gauge("load_seconds").set_duration(Duration::from_micros(11_400));
        registry.gauge("load_bytes").set(11_400);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE load_seconds gauge\nload_seconds 0.011400\n"), "{text}");
        assert!(text.contains("load_bytes 11400\n"), "{text}");
    }

    #[test]
    fn bucket_bounds_cover_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(63), u64::MAX);
        // Every value falls inside its bucket's range.
        for ns in [0u64, 1, 2, 3, 7, 8, 1000, 123_456_789, u64::MAX] {
            let b = bucket_index(ns);
            assert!(ns <= bucket_upper(b), "{ns} above upper of bucket {b}");
            if b > 1 {
                assert!(ns > bucket_upper(b - 1), "{ns} not above bucket {}", b - 1);
            }
        }
    }

    #[test]
    fn histogram_percentiles_never_underestimate() {
        let h = Histogram::new();
        let samples: Vec<u64> = (1..=1000).map(|i| i * 137).collect();
        for &ns in &samples {
            h.record_ns(ns);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [50.0, 95.0, 99.0, 99.9] {
            let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
            let exact = sorted[rank - 1];
            let hist = h.percentile(q).as_nanos() as u64;
            assert!(hist >= exact, "p{q}: hist {hist} < exact {exact}");
            assert!(hist <= exact.saturating_mul(2), "p{q}: hist {hist} > 2x exact {exact}");
        }
        assert_eq!(h.summary().max, Duration::from_nanos(137_000));
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn histogram_percentile_clamps_to_observed_max() {
        let h = Histogram::new();
        h.record_ns(1_000); // bucket 10, upper bound 1023
        assert_eq!(h.percentile(99.0), Duration::from_nanos(1_000));
        let empty = Histogram::new();
        assert_eq!(empty.percentile(50.0), Duration::ZERO);
        assert_eq!(empty.summary(), LatencySummary::default());
    }

    #[test]
    fn registry_snapshot_reads() {
        let registry = MetricsRegistry::new();
        registry.counter("queries_total").add(10);
        registry.gauge("conns_active").set(3);
        registry.labeled_histogram("stage_ns", "stage", "parse").record_ns(500);
        let first = registry.snapshot();
        registry.counter("queries_total").add(5);
        registry.labeled_histogram("stage_ns", "stage", "parse").record_ns(700);
        let second = registry.snapshot();
        // A snapshot is a copy: later increments do not reach it.
        assert_eq!(first.counter("queries_total"), 10);
        assert_eq!(first.histogram("stage_ns", Some(("stage", "parse"))).unwrap().count, 1);
        assert_eq!(second.counter("queries_total"), 15);
        assert_eq!(second.gauge("conns_active"), 3);
        assert_eq!(second.histogram("stage_ns", Some(("stage", "parse"))).unwrap().count, 2);
        assert!(second.histogram("stage_ns", Some(("stage", "merge"))).is_none());
        assert!(second.histogram("stage_ns", None).is_none());
        assert_eq!(second.counter("missing"), 0);
    }

    #[test]
    fn labeled_counters_and_gauges_intern_per_label_value() {
        let registry = MetricsRegistry::new();
        registry.labeled_counter("replica_opens_total", "replica", "a").add(2);
        registry.labeled_counter("replica_opens_total", "replica", "b").inc();
        let state = Arc::new(Gauge::new());
        registry.adopt_gauge("replica_state", Some(("replica", "a")), &state);
        registry.adopt_gauge("replica_state", Some(("replica", "b")), &Arc::default());
        state.set(2);
        // Idempotent per (name, label value); distinct values are distinct.
        assert_eq!(registry.labeled_counter("replica_opens_total", "replica", "a").value(), 2);
        assert_eq!(registry.labeled_counter("replica_opens_total", "replica", "b").value(), 1);
        // The unlabeled member is a different metric entirely.
        assert_eq!(registry.counter("replica_opens_total").value(), 0);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.labeled_counter("replica_opens_total", ("replica", "a")), 2);
        assert_eq!(snapshot.labeled_gauge("replica_state", ("replica", "a")), 2);
        assert_eq!(snapshot.labeled_gauge("replica_state", ("replica", "missing")), 0);
        let text = registry.render_prometheus();
        assert!(text.contains("replica_opens_total{replica=\"a\"} 2\n"), "{text}");
        assert!(text.contains("replica_state{replica=\"b\"} 0\n"), "{text}");
        assert_eq!(text.matches("# TYPE replica_state gauge").count(), 1);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let registry = MetricsRegistry::new();
        registry.counter("queries_total").add(42);
        registry.gauge("conns_active").set(2);
        registry.labeled_histogram("stage_ns", "stage", "parse").record_ns(900);
        registry.labeled_histogram("stage_ns", "stage", "merge").record_ns(100);
        registry.histogram("query_ns").record_ns(5_000);
        let text = registry.render_prometheus();

        assert!(text.contains("# TYPE queries_total counter\n"));
        assert!(text.contains("queries_total 42\n"));
        assert!(text.contains("# TYPE conns_active gauge\n"));
        assert!(text.contains("conns_active 2\n"));
        // One TYPE line per family, even with two labeled members.
        assert_eq!(text.matches("# TYPE stage_ns histogram").count(), 1);
        assert!(text.contains("stage_ns_bucket{stage=\"parse\",le=\"1023\"} 1\n"));
        assert!(text.contains("stage_ns_bucket{stage=\"parse\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("stage_ns_sum{stage=\"parse\"} 900\n"));
        assert!(text.contains("stage_ns_count{stage=\"merge\"} 1\n"));
        assert!(text.contains("query_ns_bucket{le=\"8191\"} 1\n"));
        assert!(text.contains("query_ns_count 1\n"));
        // Every non-comment line is `name[{labels}] <integer>`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
            value.parse::<u64>().unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
        }
    }

    #[test]
    fn adopted_handles_are_the_exposed_series_and_sum_per_key() {
        let registry = MetricsRegistry::new();
        let eager = registry.counter("retries_total");
        let (a, b) = (Arc::new(Counter::new()), Arc::new(Counter::new()));
        a.add(2); // counted before the owner knew its registry
        registry.adopt_counter("retries_total", None, &a);
        registry.adopt_counter("retries_total", None, &a); // same handle: no-op
        registry.adopt_counter("retries_total", None, &b);
        b.inc();
        eager.inc();
        assert_eq!(registry.snapshot().counter("retries_total"), 4);
        let state = Arc::new(Gauge::new());
        registry.adopt_gauge("replica_state", Some(("replica", "a")), &state);
        state.set(2);
        assert_eq!(registry.snapshot().labeled_gauge("replica_state", ("replica", "a")), 2);
        let text = registry.render_prometheus();
        assert_eq!(text.matches("retries_total 4\n").count(), 1, "{text}");
        assert!(text.contains("replica_state{replica=\"a\"} 2\n"), "{text}");
    }
}
