//! Serving metrics: every number the server reports, declared once.
//!
//! The `metrics!` list below is the one place an unlabelled serving counter
//! or gauge is declared: its id ([`Metric`]), its `!metrics` series name and
//! kind, and — if `!stats` shows it — its key there.  Everything else reads
//! the resulting [`TABLE`]: [`ServerStats`] is a `dsearch_obs::MetricsRegistry`
//! plus one handle per row (incremented by index: one relaxed `fetch_add`, no
//! name lookup, no lock), and the `!stats` status line of `serve` and of
//! `route` alike is [`ServerStats::render`] walking the table over a snapshot
//! of that registry.  `!stats` is thus a rendering of a subset of `!metrics`
//! by construction; the keys that are not series themselves (`expired`,
//! `deadline_exceeded`, `qps`, `cache_hit_rate`, `compression`) are computed
//! from series.  Adding a metric is one row plus its increment site.
//!
//! The labelled families (per-stage latency, per-stage deadline misses,
//! per-shard round trips) and the two plain histograms sit beside the table.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dsearch_obs::{Counter, Gauge, Histogram, MetricsRegistry, QueryTrace, SlowLog, Stage};

/// Metric name of the end-to-end query latency histogram.
pub const QUERY_LATENCY_METRIC: &str = "dsearch_query_latency_ns";
/// Metric name of the per-stage latency histogram family (`stage` label).
pub const STAGE_LATENCY_METRIC: &str = "dsearch_stage_latency_ns";
/// Metric name of the per-shard round-trip histogram family (`shard` label).
pub const SHARD_RTT_METRIC: &str = "dsearch_shard_rtt_ns";
/// Metric name of the blown-deadline counter family (`stage` label:
/// where in the request lifecycle the budget ran out).
pub const DEADLINE_EXCEEDED_METRIC: &str = "dsearch_deadline_exceeded_total";
/// Metric name of the remaining-budget-at-dequeue histogram: how much of its
/// deadline a query still had when a worker picked it up.
pub const REMAINING_BUDGET_METRIC: &str = "dsearch_remaining_budget_ns";

/// Where in the request lifecycle a deadline was exceeded (the `stage` label
/// of [`DEADLINE_EXCEEDED_METRIC`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineStage {
    /// Expired while waiting in the admission queue (shed at dequeue).
    Queue,
    /// Expired during query evaluation (cancelled mid-execution).
    Exec,
    /// Expired while waiting on the scatter-gather fan-out.
    Scatter,
}

impl DeadlineStage {
    /// Every stage, in declaration order.
    pub const ALL: [DeadlineStage; 3] =
        [DeadlineStage::Queue, DeadlineStage::Exec, DeadlineStage::Scatter];

    /// The `stage` label value.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DeadlineStage::Queue => "queue",
            DeadlineStage::Exec => "exec",
            DeadlineStage::Scatter => "scatter",
        }
    }
}

/// Whether a row's series only goes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone; `inc`/`add`.
    Counter,
    /// Goes up and down, or is set; a gauge named `*_seconds` holds
    /// nanoseconds (`!metrics` prints seconds, `!stats` milliseconds).
    Gauge,
}

/// Whether `!stats` shows a row, where on the line, and under which key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shown {
    /// `!metrics` only.
    Nowhere,
    /// Bare `key=value`, ahead of `latency[…]`.
    Line(&'static str),
    /// Inside `index[…]`: the served snapshot.  A router serves none, so
    /// its stats neither register nor print these rows.
    Index(&'static str),
    /// Inside `cache[…]`: the result cache's footprint.
    Cache(&'static str),
}

/// One declared metric.
#[derive(Debug)]
pub struct Row {
    /// The id handles are indexed by.
    pub metric: Metric,
    /// The `!metrics` series name.
    pub series: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// Its place on the `!stats` line.
    pub shown: Shown,
}

/// Declares [`Metric`] and [`TABLE`] from one list, so an id and its row
/// cannot fall out of step: `Id = Kind "series", Shown;`, in `!stats` order.
macro_rules! metrics {
    ($($(#[$doc:meta])* $id:ident = $kind:ident $series:literal, $shown:expr;)*) => {
        /// Id of one unlabelled serving metric: the index of its row in [`TABLE`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $($(#[$doc])* $id,)*
        }

        /// Every unlabelled serving metric, in [`Metric`] order — which is
        /// also the order of the `!stats` line.
        pub const TABLE: &[Row] = {
            use Shown::*;
            &[$(Row { metric: Metric::$id, series: $series, kind: Kind::$kind, shown: $shown },)*]
        };
    };
}

metrics! {
    /// Queries answered.
    Queries = Counter "dsearch_queries_total", Line("queries");
    /// Failed requests (parse errors, all shards failed, panics).
    Errors = Counter "dsearch_errors_total", Line("errors");
    /// Requests shed by admission control (expired sheds included).
    Shed = Counter "dsearch_shed_total", Line("shed");
    /// Hedges/failovers a replica set refused on an empty retry budget.
    RetryExhausted = Counter "dsearch_retry_budget_exhausted_total", Line("retry_exhausted");
    /// Queries run on the thread they arrived on, under an execution slot
    /// and past the queue.
    Inline = Counter "dsearch_inline_total", Line("inline");
    /// Multi-query batches executed.
    Batches = Counter "dsearch_batches_total", Nowhere;
    /// Queries served inside multi-query batches.
    Batched = Counter "dsearch_batched_queries_total", Line("batched");
    /// Queries answered by deduplication inside a batch.
    DedupHits = Counter "dsearch_dedup_hits_total", Line("dedup_hits");
    /// Per-query shard failures seen by the router.
    ShardErrors = Counter "dsearch_shard_errors_total", Line("shard_errors");
    /// Routed responses served with at least one shard missing.
    Partial = Counter "dsearch_partial_responses_total", Line("partial");
    /// Generation of the served snapshot (for a router: its reload epoch).
    Generation = Gauge "dsearch_snapshot_generation", Line("generation");
    /// Posting blocks decoded and scored by ranked evaluation.
    BlocksScored = Counter "dsearch_blocks_scored_total", Line("blocks_scored");
    /// Posting blocks never entered: jumped over by skip-table seeks, or
    /// left behind when the evaluation stopped before them.
    BlocksSkipped = Counter "dsearch_blocks_skipped_total", Line("blocks_skipped");
    /// Result-cache lookups that found a live entry.
    CacheHits = Counter "dsearch_cache_hits_total", Line("cache_hits");
    /// Result-cache lookups that missed.
    CacheMisses = Counter "dsearch_cache_misses_total", Line("cache_misses");
    /// Result-cache entries displaced to make room.
    CacheEvictions = Counter "dsearch_cache_evictions_total", Line("cache_evictions");
    /// Result-cache inserts the admission filter turned away.
    CacheRejected = Counter "dsearch_cache_rejected_total", Line("cache_rejected");
    /// Result-cache entries inserted.
    CacheInsertions = Counter "dsearch_cache_insertions_total", Nowhere;
    /// TCP connections currently open.
    ConnsActive = Gauge "dsearch_conns_active", Line("conns");
    /// TCP connections refused by the `--max-conns` cap.
    ConnsRejected = Counter "dsearch_conns_rejected_total", Line("conns_rejected");
    /// TCP connections closed by the idle timeout.
    IdleClosed = Counter "dsearch_idle_disconnects_total", Line("idle_closed");
    /// Segments (sealed shards) of the served snapshot.
    SnapshotShards = Gauge "dsearch_snapshot_shards", Index("shards");
    /// Postings of the served snapshot.
    SnapshotPostings = Gauge "dsearch_snapshot_postings", Index("postings");
    /// Compressed posting bytes of the served snapshot.
    SnapshotPostingBytes = Gauge "dsearch_snapshot_posting_bytes", Index("posting_bytes");
    /// What those postings would take as plain `u32` ids.
    SnapshotRawBytes = Gauge "dsearch_snapshot_raw_bytes", Index("raw_bytes");
    /// What loading the served snapshot from its store took.
    SnapshotLoad = Gauge "dsearch_snapshot_load_seconds", Index("load_ms");
    /// Heap bytes of the served snapshot.
    SnapshotResident = Gauge "dsearch_snapshot_resident_bytes", Index("resident_bytes");
    /// Live result-cache entries.
    CacheEntries = Gauge "dsearch_cache_entries", Cache("entries");
    /// Heap bytes of the result cache (keys, hit vectors, path text).
    CacheResident = Gauge "dsearch_cache_resident_bytes", Cache("bytes");
}

impl Metric {
    /// The row declaring this metric.
    #[must_use]
    pub fn row(self) -> &'static Row {
        &TABLE[self as usize]
    }
}

#[derive(Debug)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
}

fn ratio(numerator: u64, denominator: u64, when_empty: f64) -> f64 {
    if denominator == 0 {
        when_empty
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Live serving metrics, updated by every worker.
///
/// All mutation paths are lock-free (relaxed atomics on handles held by
/// index); the registry's mutex is only taken at construction, when a
/// backend binds its own series, and by the cold readers `!stats` and
/// `!metrics`.
#[derive(Debug)]
pub struct ServerStats {
    started: Instant,
    registry: Arc<MetricsRegistry>,
    slow: SlowLog,
    /// One handle per [`TABLE`] row, in row order.
    handles: Vec<Handle>,
    serves_index: bool,
    latency: Arc<Histogram>,
    stages: [Arc<Histogram>; Stage::ALL.len()],
    deadline_exceeded: [Arc<Counter>; DeadlineStage::ALL.len()],
    remaining_budget: Arc<Histogram>,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats::build(false)
    }
}

impl ServerStats {
    /// Creates zeroed stats anchored at "now", without the [`Shown::Index`]
    /// rows: the stats of a process that serves no snapshot (a router).
    #[must_use]
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// Creates zeroed stats with every row of the table: the stats of an
    /// engine serving a snapshot.
    #[must_use]
    pub fn with_index() -> Self {
        ServerStats::build(true)
    }

    /// Walks the table.  Everything is registered eagerly, so `!metrics`
    /// exposes each series and family member from the first scrape, traffic
    /// or not; a row left out gets its handle from a registry no one reads.
    fn build(serves_index: bool) -> Self {
        let (registry, unexposed) = (Arc::new(MetricsRegistry::new()), MetricsRegistry::new());
        let handles = TABLE
            .iter()
            .map(|row| {
                let exposed = serves_index || !matches!(row.shown, Shown::Index(_));
                let home = if exposed { &*registry } else { &unexposed };
                match row.kind {
                    Kind::Counter => Handle::Counter(home.counter(row.series)),
                    Kind::Gauge => Handle::Gauge(home.gauge(row.series)),
                }
            })
            .collect();
        ServerStats {
            started: Instant::now(),
            slow: SlowLog::default(),
            handles,
            serves_index,
            latency: registry.histogram(QUERY_LATENCY_METRIC),
            stages: Stage::ALL.map(|stage| {
                registry.labeled_histogram(STAGE_LATENCY_METRIC, "stage", stage.as_str())
            }),
            deadline_exceeded: DeadlineStage::ALL.map(|stage| {
                registry.labeled_counter(DEADLINE_EXCEEDED_METRIC, "stage", stage.as_str())
            }),
            remaining_budget: registry.histogram(REMAINING_BUDGET_METRIC),
            registry,
        }
    }

    /// The metrics registry behind these stats.  Other subsystems register
    /// their own series here so one `!metrics` scrape covers the process.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The slow-query log (`!trace` / `!slow`).
    #[must_use]
    pub fn slow_log(&self) -> &SlowLog {
        &self.slow
    }

    pub(crate) fn counter(&self, metric: Metric) -> &Arc<Counter> {
        match &self.handles[metric as usize] {
            Handle::Counter(counter) => counter,
            Handle::Gauge(_) => panic!("{metric:?} is declared a gauge"),
        }
    }

    /// The gauge behind `metric`, to `set`, `inc` or `dec`.
    ///
    /// # Panics
    ///
    /// When the table declares `metric` a counter.
    #[must_use]
    pub fn gauge(&self, metric: Metric) -> &Gauge {
        match &self.handles[metric as usize] {
            Handle::Gauge(gauge) => gauge,
            Handle::Counter(_) => panic!("{metric:?} is declared a counter"),
        }
    }

    /// Adds one to the counter `metric`.
    ///
    /// # Panics
    ///
    /// When the table declares `metric` a gauge (as for [`add`](Self::add)).
    pub fn inc(&self, metric: Metric) {
        self.counter(metric).inc();
    }

    /// Adds `n` to the counter `metric`.
    pub fn add(&self, metric: Metric, n: u64) {
        self.counter(metric).add(n);
    }

    /// Current value of this process's own handle for `metric`.
    #[must_use]
    pub fn get(&self, metric: Metric) -> u64 {
        match &self.handles[metric as usize] {
            Handle::Counter(counter) => counter.value(),
            Handle::Gauge(gauge) => gauge.value(),
        }
    }

    /// Records one successfully answered query.
    pub fn record_query(&self, latency: Duration) {
        self.inc(Metric::Queries);
        self.latency.record(latency);
    }

    /// Records every stage span of a finished trace into the per-stage
    /// histogram family.
    pub fn record_trace(&self, trace: &QueryTrace) {
        for span in trace.spans() {
            self.stages[span.stage as usize].record(span.dur);
        }
    }

    /// Registers (or looks up) the round-trip histogram of one shard.
    /// Callers on the fan-out path should hold on to the returned `Arc`
    /// rather than re-resolving per query.
    #[must_use]
    pub fn shard_rtt_histogram(&self, shard: &str) -> Arc<Histogram> {
        self.registry.labeled_histogram(SHARD_RTT_METRIC, "shard", shard)
    }

    /// Records one executed batch of `size` queries.  Batches of one are the
    /// unbatched fast path and are not counted.
    pub fn record_batch(&self, size: u64) {
        if size >= 2 {
            self.inc(Metric::Batches);
            self.add(Metric::Batched, size);
        }
    }

    /// Records one blown deadline, attributed to the lifecycle stage where
    /// the budget ran out.
    pub fn record_deadline_exceeded(&self, stage: DeadlineStage) {
        self.deadline_exceeded[stage as usize].inc();
    }

    /// Records one job shed at dequeue because its deadline had already
    /// passed: an `expired=` shed, counted both as a shed and as a
    /// queue-stage deadline miss.
    pub fn record_expired_shed(&self) {
        self.inc(Metric::Shed);
        self.record_deadline_exceeded(DeadlineStage::Queue);
    }

    /// Records one evaluation's block counters: how many posting blocks were
    /// decoded versus never entered.
    pub fn record_prune(&self, prune: dsearch_query::PruneStats) {
        if prune.blocks_scored > 0 {
            self.add(Metric::BlocksScored, prune.blocks_scored);
        }
        if prune.blocks_skipped > 0 {
            self.add(Metric::BlocksSkipped, prune.blocks_skipped);
        }
    }

    /// Deadline misses attributed to one lifecycle stage so far
    /// ([`DeadlineStage::Queue`]: the `expired=` sheds).
    #[must_use]
    pub fn deadline_exceeded(&self, stage: DeadlineStage) -> u64 {
        self.deadline_exceeded[stage as usize].value()
    }

    /// The remaining-budget-at-dequeue histogram: how much of its budget a
    /// deadline-carrying job still had when a worker picked it up.
    #[must_use]
    pub fn remaining_budget_histogram(&self) -> &Histogram {
        &self.remaining_budget
    }

    /// Renders the `!stats` status line: the keyed rows of the table, in
    /// table order, read from one snapshot of the registry — so a series
    /// other handles were adopted into (a replica set's refusals under
    /// `retry_exhausted=`) shows their sum — with the derived keys placed
    /// after the series they are computed from.
    #[must_use]
    pub fn render(&self) -> String {
        let snapshot = self.registry.snapshot();
        let value = |metric: Metric| match metric.row().kind {
            Kind::Counter => snapshot.counter(metric.row().series),
            Kind::Gauge => snapshot.gauge(metric.row().series),
        };
        let deadline_misses = |stage: DeadlineStage| {
            snapshot.labeled_counter(DEADLINE_EXCEEDED_METRIC, ("stage", stage.as_str()))
        };
        let (mut line, mut index, mut cache) = (Vec::new(), Vec::new(), Vec::new());
        for row in TABLE {
            let (fields, key) = match row.shown {
                Shown::Nowhere => continue,
                Shown::Line(key) => (&mut line, key),
                Shown::Index(key) => (&mut index, key),
                Shown::Cache(key) => (&mut cache, key),
            };
            let v = value(row.metric);
            if row.metric == Metric::CacheHits {
                let rate = ratio(v, v + value(Metric::CacheMisses), 0.0);
                fields.push(format!("cache_hit_rate={rate:.3}"));
            }
            fields.push(if row.series.ends_with("_seconds") {
                format!("{key}={:.1}", v as f64 / 1e6)
            } else {
                format!("{key}={v}")
            });
            match row.metric {
                Metric::Shed => {
                    fields.push(format!("expired={}", deadline_misses(DeadlineStage::Queue)));
                    let all: u64 = DeadlineStage::ALL.into_iter().map(deadline_misses).sum();
                    fields.push(format!("deadline_exceeded={all}"));
                }
                Metric::Partial => {
                    let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
                    let qps = value(Metric::Queries) as f64 / uptime;
                    fields.push(format!("qps={qps:.1}"));
                }
                Metric::SnapshotRawBytes => {
                    let compression = ratio(v, value(Metric::SnapshotPostingBytes), 1.0);
                    fields.push(format!("compression={compression:.2}x"));
                }
                _ => {}
            }
        }
        let (line, cache) = (line.join(" "), cache.join(" "));
        let latency = self.latency.summary();
        if self.serves_index {
            format!("{line} latency[{latency}] index[{}] cache[{cache}]", index.join(" "))
        } else {
            format!("{line} latency[{latency}] cache[{cache}]")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_obs::{HistogramSnapshot, LatencySummary};

    fn histogram(stats: &ServerStats, name: &str, stage: Option<Stage>) -> HistogramSnapshot {
        let label = stage.map(|stage| ("stage", stage.as_str()));
        stats.registry().snapshot().histogram(name, label).expect("registered eagerly").clone()
    }

    fn latency_summary(stats: &ServerStats) -> LatencySummary {
        histogram(stats, QUERY_LATENCY_METRIC, None).summary()
    }

    #[test]
    fn counters_and_percentiles_accumulate() {
        let stats = ServerStats::new();
        for i in 1..=100u64 {
            stats.record_query(Duration::from_micros(i));
        }
        stats.inc(Metric::Errors);
        assert_eq!(stats.get(Metric::Queries), 100);
        assert_eq!(stats.get(Metric::Errors), 1);
        let summary = latency_summary(&stats);
        assert_eq!(summary.samples, 100);
        // Histogram percentiles report bucket upper bounds: never below the
        // exact percentile, at most 2x over.
        assert!(summary.p50 >= Duration::from_micros(50), "p50 {:?}", summary.p50);
        assert!(summary.p50 <= Duration::from_micros(100), "p50 {:?}", summary.p50);
        assert!(summary.p99 >= Duration::from_micros(99), "p99 {:?}", summary.p99);
        assert_eq!(summary.max, Duration::from_micros(100));
        stats.gauge(Metric::Generation).set(7);
        let report = stats.render();
        assert!(report.contains("generation=7"), "{report}");
        assert!(report.contains("queries=100"), "{report}");
        assert!(report.contains("shed=0"), "{report}");
        assert!(report.contains("p99.9"), "{report}");
    }

    #[test]
    fn histogram_percentiles_match_exact_ring_within_bucket_error() {
        // The old implementation kept an exact ring of recent samples; the
        // histogram replaces it.  Cross-check: for a busy, skewed window the
        // histogram-derived percentiles stay within one log2 bucket of the
        // exact nearest-rank percentiles (exact <= histogram <= 2 * exact).
        let stats = ServerStats::new();
        let mut exact_ring: Vec<Duration> = Vec::new();
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..5000 {
            // xorshift: a long-tailed mix of sub-µs to ~100ms samples.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let sample = Duration::from_nanos(200 + state % 100_000_000);
            stats.record_query(sample);
            exact_ring.push(sample);
        }
        exact_ring.sort_unstable();
        let summary = latency_summary(&stats);
        let exact = LatencySummary::from_samples(&exact_ring);
        for (name, hist, exact) in [
            ("p50", summary.p50, exact.p50),
            ("p95", summary.p95, exact.p95),
            ("p99", summary.p99, exact.p99),
            ("p99.9", summary.p999, exact.p999),
        ] {
            assert!(hist >= exact, "{name}: histogram {hist:?} < exact {exact:?}");
            assert!(hist <= exact * 2, "{name}: histogram {hist:?} > 2x exact {exact:?}");
        }
        assert_eq!(summary.max, exact.max);
        assert_eq!(summary.samples, 5000);
    }

    #[test]
    fn batching_counters_accumulate_and_render() {
        let stats = ServerStats::new();
        stats.inc(Metric::Shed);
        stats.inc(Metric::Shed);
        stats.record_batch(1); // unbatched fast path: not counted
        stats.record_batch(4);
        stats.record_batch(3);
        stats.add(Metric::DedupHits, 5);
        assert_eq!(stats.get(Metric::Shed), 2);
        assert_eq!(stats.get(Metric::Batches), 2);
        assert_eq!(stats.get(Metric::Batched), 7);
        assert_eq!(stats.get(Metric::DedupHits), 5);
        let report = stats.render();
        assert!(report.contains("shed=2"), "{report}");
        assert!(report.contains("batched=7"), "{report}");
        assert!(report.contains("dedup_hits=5"), "{report}");
    }

    #[test]
    fn every_row_counts_reads_and_renders_under_its_key() {
        let stats = ServerStats::with_index();
        for (i, row) in TABLE.iter().enumerate() {
            assert_eq!(row.metric as usize, i, "{:?} is out of enum order", row.metric);
            assert_eq!(TABLE.iter().filter(|r| r.series == row.series).count(), 1);
            match row.kind {
                Kind::Counter => stats.inc(row.metric),
                Kind::Gauge => stats.gauge(row.metric).inc(),
            }
            assert_eq!(stats.get(row.metric), 1, "{:?}", row.metric);
        }
        let (report, metrics) = (stats.render(), stats.registry().render_prometheus());
        for row in TABLE {
            let kind = if row.kind == Kind::Counter { "counter" } else { "gauge" };
            assert!(metrics.contains(&format!("# TYPE {} {kind}\n", row.series)), "{metrics}");
            let key = match row.shown {
                Shown::Nowhere => continue,
                Shown::Line(key) | Shown::Index(key) | Shown::Cache(key) => key,
            };
            // One nanosecond of load time is 0.0 ms.
            let value = if row.series.ends_with("_seconds") { "0.0" } else { "1" };
            let keyed = format!("{key}={value}");
            let found = report.split([' ', '[', ']']).filter(|field| *field == keyed).count();
            assert_eq!(found, 1, "{keyed} in {report}");
        }
        // The derived keys, each from the series beside it.
        for derived in ["expired=0", "deadline_exceeded=0", "cache_hit_rate=0.500", "qps="] {
            assert!(report.contains(derived), "{derived} in {report}");
        }
        assert!(report.contains("compression=1.00x"), "{report}");
        // A router's stats declare no snapshot: no series, no `index[…]`.
        let router = ServerStats::new();
        assert!(!router.render().contains("index["), "{}", router.render());
        assert!(!router.registry().render_prometheus().contains("dsearch_snapshot_shards"));
        assert!(router.render().contains("generation=0"), "{}", router.render());
    }

    #[test]
    fn deadline_counters_accumulate_and_render() {
        let stats = ServerStats::new();
        stats.record_expired_shed();
        stats.record_deadline_exceeded(DeadlineStage::Exec);
        stats.record_deadline_exceeded(DeadlineStage::Scatter);
        stats.record_deadline_exceeded(DeadlineStage::Scatter);
        stats.inc(Metric::RetryExhausted);
        stats.remaining_budget_histogram().record(Duration::from_millis(3));
        assert_eq!(stats.deadline_exceeded(DeadlineStage::Queue), 1);
        assert_eq!(stats.get(Metric::Shed), 1, "an expired shed is still a shed");
        assert_eq!(stats.deadline_exceeded(DeadlineStage::Exec), 1);
        assert_eq!(stats.deadline_exceeded(DeadlineStage::Scatter), 2);
        assert_eq!(stats.get(Metric::RetryExhausted), 1);
        assert_eq!(stats.remaining_budget_histogram().count(), 1);
        let report = stats.render();
        assert!(report.contains("expired=1"), "{report}");
        assert!(report.contains("deadline_exceeded=4"), "{report}");
        assert!(report.contains("retry_exhausted=1"), "{report}");
        // The full stage family and the budget metrics are registered
        // eagerly, traffic or not.
        let text = ServerStats::new().registry().render_prometheus();
        for stage in DeadlineStage::ALL {
            assert!(
                text.contains(&format!("stage=\"{}\"", stage.as_str())),
                "missing deadline stage {} in exposition",
                stage.as_str()
            );
        }
        assert!(text.contains(Metric::RetryExhausted.row().series), "{text}");
        assert!(text.contains(REMAINING_BUDGET_METRIC), "{text}");
    }

    #[test]
    fn prune_counters_accumulate_and_render() {
        let stats = ServerStats::new();
        let prune = |scored, skipped| dsearch_query::PruneStats {
            blocks_scored: scored,
            blocks_skipped: skipped,
            ..Default::default()
        };
        stats.record_prune(prune(12, 88));
        stats.record_prune(prune(0, 0));
        stats.record_prune(prune(3, 2));
        assert_eq!(stats.get(Metric::BlocksScored), 15);
        assert_eq!(stats.get(Metric::BlocksSkipped), 90);
        let report = stats.render();
        assert!(report.contains("blocks_scored=15"), "{report}");
        assert!(report.contains("blocks_skipped=90"), "{report}");
        // Registered eagerly: the exposition lists both series pre-traffic.
        let text = ServerStats::new().registry().render_prometheus();
        assert!(text.contains(Metric::BlocksScored.row().series), "{text}");
        assert!(text.contains(Metric::BlocksSkipped.row().series), "{text}");
    }

    #[test]
    fn traces_feed_the_stage_histogram_family() {
        let stats = ServerStats::new();
        let mut trace = QueryTrace::new(1);
        trace.record(Stage::Parse, Duration::from_nanos(400));
        trace.record(Stage::Postings, Duration::from_micros(9));
        stats.record_trace(&trace);
        stats.record_trace(&trace);
        let count = |stage| histogram(&stats, STAGE_LATENCY_METRIC, Some(stage)).count;
        assert_eq!(count(Stage::Parse), 2);
        assert_eq!(count(Stage::Postings), 2);
        assert_eq!(count(Stage::Merge), 0);
        // Every stage family member is registered eagerly, so the exposition
        // lists them all even without traffic.
        let text = stats.registry().render_prometheus();
        for stage in Stage::ALL {
            assert!(
                text.contains(&format!("stage=\"{stage}\"")),
                "missing stage {stage} in exposition"
            );
        }
        assert!(text.contains("# TYPE dsearch_queries_total counter"), "{text}");
    }

    #[test]
    fn shard_rtt_histograms_register_lazily_per_shard() {
        let stats = ServerStats::new();
        let rtt = stats.shard_rtt_histogram("127.0.0.1:7471");
        rtt.record(Duration::from_micros(12));
        // Same shard resolves to the same histogram.
        assert_eq!(stats.shard_rtt_histogram("127.0.0.1:7471").count(), 1);
        let text = stats.registry().render_prometheus();
        assert!(text.contains("shard=\"127.0.0.1:7471\""), "{text}");
    }
}
