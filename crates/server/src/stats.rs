//! Serving metrics: QPS, latency percentiles, cache hit rate, generation.
//!
//! `ServerStats` is a thin facade over a `dsearch_obs::MetricsRegistry`:
//! every counter, gauge and latency histogram it reports is a registered
//! metric, so the same numbers back the human-readable `!stats` line, the
//! Prometheus-style `!metrics` exposition and any future subsystem that
//! wants to hang its own series off the shared registry.  Latency
//! percentiles come from `dsearch_core::timing::LatencySummary` so the
//! server, the load generator and the benches all agree on one percentile
//! definition; here they are derived from a lock-free log₂-bucketed
//! histogram (never an underestimate, at most 2× over — see
//! `dsearch_obs::metrics`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use dsearch_core::timing::LatencySummary;
use dsearch_obs::{Counter, Gauge, Histogram, MetricsRegistry, QueryTrace, SlowLog, Stage};

use crate::cache::CacheCounters;

/// Metric name of the end-to-end query latency histogram.
pub const QUERY_LATENCY_METRIC: &str = "dsearch_query_latency_ns";
/// Metric name of the per-stage latency histogram family (`stage` label).
pub const STAGE_LATENCY_METRIC: &str = "dsearch_stage_latency_ns";
/// Metric name of the per-shard round-trip histogram family (`shard` label).
pub const SHARD_RTT_METRIC: &str = "dsearch_shard_rtt_ns";
/// Metric name of the blown-deadline counter family (`stage` label:
/// where in the request lifecycle the budget ran out).
pub const DEADLINE_EXCEEDED_METRIC: &str = "dsearch_deadline_exceeded_total";
/// Metric name of the retry-budget exhaustion counter (hedges/failovers
/// suppressed because the token bucket was empty).
pub const RETRY_BUDGET_METRIC: &str = "dsearch_retry_budget_exhausted_total";
/// Metric name of the remaining-budget-at-dequeue histogram: how much of its
/// deadline a query still had when a worker picked it up.
pub const REMAINING_BUDGET_METRIC: &str = "dsearch_remaining_budget_ns";
/// Metric name of the posting blocks decoded and scored by ranked
/// (block-max) evaluation.
pub const BLOCKS_SCORED_METRIC: &str = "dsearch_blocks_scored_total";
/// Metric name of the posting blocks skipped by block-max pruning (their
/// score ceiling could not beat the top-k threshold).
pub const BLOCKS_SKIPPED_METRIC: &str = "dsearch_blocks_skipped_total";

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
    /// Every stage, in slot order.
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

    fn slot(self) -> usize {
        match self {
            DeadlineStage::Queue => 0,
            DeadlineStage::Exec => 1,
            DeadlineStage::Scatter => 2,
        }
    }
}

fn stage_slot(stage: Stage) -> usize {
    match stage {
        Stage::Parse => 0,
        Stage::QueueWait => 1,
        Stage::BatchFill => 2,
        Stage::SnapshotLoad => 3,
        Stage::Postings => 4,
        Stage::IntersectMerge => 5,
        Stage::Serialize => 6,
        Stage::Scatter => 7,
        Stage::ShardRtt => 8,
        Stage::Merge => 9,
    }
}

/// Live serving metrics, updated by every worker.
///
/// All mutation paths are lock-free (relaxed atomics in the underlying
/// registry metrics); the registry's mutex is only taken at construction and
/// by cold readers (`!metrics`, lazy per-shard registration).
#[derive(Debug)]
pub struct ServerStats {
    started: Instant,
    registry: Arc<MetricsRegistry>,
    slow: SlowLog,
    queries: Arc<Counter>,
    errors: Arc<Counter>,
    shed: Arc<Counter>,
    batches: Arc<Counter>,
    batched: Arc<Counter>,
    dedup_hits: Arc<Counter>,
    adaptive_waits: Arc<Counter>,
    adaptive_skips: Arc<Counter>,
    shard_errors: Arc<Counter>,
    partial_responses: Arc<Counter>,
    conns_active: Arc<Gauge>,
    conns_rejected: Arc<Counter>,
    idle_disconnects: Arc<Counter>,
    latency: Arc<Histogram>,
    stages: [Arc<Histogram>; Stage::ALL.len()],
    deadline_exceeded: [Arc<Counter>; DeadlineStage::ALL.len()],
    retry_budget_exhausted: Arc<Counter>,
    remaining_budget: Arc<Histogram>,
    blocks_scored: Arc<Counter>,
    blocks_skipped: Arc<Counter>,
}

impl Default for ServerStats {
    fn default() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        // Every stage histogram is registered eagerly so `!metrics` exposes
        // the full family from the first scrape, traffic or not.
        let stages = std::array::from_fn(|i| {
            registry.labeled_histogram(STAGE_LATENCY_METRIC, "stage", Stage::ALL[i].as_str())
        });
        let deadline_exceeded = std::array::from_fn(|i| {
            registry.labeled_counter(
                DEADLINE_EXCEEDED_METRIC,
                "stage",
                DeadlineStage::ALL[i].as_str(),
            )
        });
        ServerStats {
            started: Instant::now(),
            slow: SlowLog::default(),
            queries: registry.counter("dsearch_queries_total"),
            errors: registry.counter("dsearch_errors_total"),
            shed: registry.counter("dsearch_shed_total"),
            batches: registry.counter("dsearch_batches_total"),
            batched: registry.counter("dsearch_batched_queries_total"),
            dedup_hits: registry.counter("dsearch_dedup_hits_total"),
            adaptive_waits: registry.counter("dsearch_adaptive_waits_total"),
            adaptive_skips: registry.counter("dsearch_adaptive_skips_total"),
            shard_errors: registry.counter("dsearch_shard_errors_total"),
            partial_responses: registry.counter("dsearch_partial_responses_total"),
            conns_active: registry.gauge("dsearch_conns_active"),
            conns_rejected: registry.counter("dsearch_conns_rejected_total"),
            idle_disconnects: registry.counter("dsearch_idle_disconnects_total"),
            latency: registry.histogram(QUERY_LATENCY_METRIC),
            stages,
            deadline_exceeded,
            retry_budget_exhausted: registry.counter(RETRY_BUDGET_METRIC),
            remaining_budget: registry.histogram(REMAINING_BUDGET_METRIC),
            blocks_scored: registry.counter(BLOCKS_SCORED_METRIC),
            blocks_skipped: registry.counter(BLOCKS_SKIPPED_METRIC),
            registry,
        }
    }
}

impl ServerStats {
    /// Creates zeroed stats anchored at "now".
    #[must_use]
    pub fn new() -> Self {
        ServerStats::default()
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

    /// Records one successfully answered query.
    pub fn record_query(&self, latency: Duration) {
        self.queries.inc();
        self.latency.record(latency);
    }

    /// Records every stage span of a finished trace into the per-stage
    /// histogram family.
    pub fn record_trace(&self, trace: &QueryTrace) {
        for span in trace.spans() {
            self.stages[stage_slot(span.stage)].record(span.dur);
        }
    }

    /// The histogram of one pipeline stage.
    #[must_use]
    pub fn stage_histogram(&self, stage: Stage) -> &Histogram {
        &self.stages[stage_slot(stage)]
    }

    /// Registers (or looks up) the round-trip histogram of one shard.
    /// Callers on the fan-out path should hold on to the returned `Arc`
    /// rather than re-resolving per query.
    #[must_use]
    pub fn shard_rtt_histogram(&self, shard: &str) -> Arc<Histogram> {
        self.registry.labeled_histogram(SHARD_RTT_METRIC, "shard", shard)
    }

    /// Records one failed request (parse error, protocol error).
    pub fn record_error(&self) {
        self.errors.inc();
    }

    /// Records one request shed by admission control.
    pub fn record_shed(&self) {
        self.shed.inc();
    }

    /// Records one executed batch of `size` queries.  Batches of one are the
    /// unbatched fast path and are not counted.
    pub fn record_batch(&self, size: u64) {
        if size >= 2 {
            self.batches.inc();
            self.batched.add(size);
        }
    }

    /// Records `count` queries answered by deduplication inside one batch.
    pub fn record_dedup_hits(&self, count: u64) {
        if count > 0 {
            self.dedup_hits.add(count);
        }
    }

    /// Records one adaptive-batching decision: `waited` says whether the
    /// worker lingered for the fill window or drained immediately.
    pub fn record_adaptive_decision(&self, waited: bool) {
        if waited {
            self.adaptive_waits.inc();
        } else {
            self.adaptive_skips.inc();
        }
    }

    /// Records `count` per-query shard failures seen by the router.
    pub fn record_shard_errors(&self, count: u64) {
        if count > 0 {
            self.shard_errors.add(count);
        }
    }

    /// Records `count` routed responses served with at least one shard
    /// missing.
    pub fn record_partial_responses(&self, count: u64) {
        self.partial_responses.add(count);
    }

    /// Records one blown deadline, attributed to the lifecycle stage where
    /// the budget ran out.
    pub fn record_deadline_exceeded(&self, stage: DeadlineStage) {
        self.deadline_exceeded[stage.slot()].inc();
    }

    /// Records one job shed at dequeue because its deadline had already
    /// passed: an `expired=` shed, counted both as a shed and as a
    /// queue-stage deadline miss.
    pub fn record_expired_shed(&self) {
        self.shed.inc();
        self.record_deadline_exceeded(DeadlineStage::Queue);
    }

    /// Records how much of its budget a deadline-carrying job still had when
    /// a worker dequeued it.
    pub fn record_remaining_budget(&self, remaining: Duration) {
        self.remaining_budget.record(remaining);
    }

    /// Records one hedge or failover suppressed by an empty retry budget.
    pub fn record_retry_budget_exhausted(&self) {
        self.retry_budget_exhausted.inc();
    }

    /// Records one ranked (block-max) evaluation's pruning outcome: how many
    /// posting blocks were decoded and scored versus skipped outright.
    pub fn record_prune(&self, prune: dsearch_query::PruneStats) {
        if prune.blocks_scored > 0 {
            self.blocks_scored.add(prune.blocks_scored);
        }
        if prune.blocks_skipped > 0 {
            self.blocks_skipped.add(prune.blocks_skipped);
        }
    }

    /// Posting blocks decoded and scored by ranked evaluation so far.
    #[must_use]
    pub fn blocks_scored_count(&self) -> u64 {
        self.blocks_scored.value()
    }

    /// Posting blocks skipped by block-max pruning so far.
    #[must_use]
    pub fn blocks_skipped_count(&self) -> u64 {
        self.blocks_skipped.value()
    }

    /// Deadline misses attributed to one lifecycle stage so far.
    #[must_use]
    pub fn deadline_exceeded_stage_count(&self, stage: DeadlineStage) -> u64 {
        self.deadline_exceeded[stage.slot()].value()
    }

    /// Deadline misses across every lifecycle stage so far.
    #[must_use]
    pub fn deadline_exceeded_count(&self) -> u64 {
        self.deadline_exceeded.iter().map(|c| c.value()).sum()
    }

    /// Jobs shed at dequeue because their deadline had already passed.
    #[must_use]
    pub fn expired_count(&self) -> u64 {
        self.deadline_exceeded_stage_count(DeadlineStage::Queue)
    }

    /// Hedges/failovers suppressed by an empty retry budget so far.
    #[must_use]
    pub fn retry_budget_exhausted_count(&self) -> u64 {
        self.retry_budget_exhausted.value()
    }

    /// The remaining-budget-at-dequeue histogram.
    #[must_use]
    pub fn remaining_budget_histogram(&self) -> &Histogram {
        &self.remaining_budget
    }

    /// Number of queries answered so far.
    #[must_use]
    pub fn query_count(&self) -> u64 {
        self.queries.value()
    }

    /// Number of failed requests so far.
    #[must_use]
    pub fn error_count(&self) -> u64 {
        self.errors.value()
    }

    /// Number of requests shed by admission control so far.
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.shed.value()
    }

    /// Number of multi-query batches executed so far.
    #[must_use]
    pub fn batch_count(&self) -> u64 {
        self.batches.value()
    }

    /// Number of queries served inside multi-query batches so far.
    #[must_use]
    pub fn batched_count(&self) -> u64 {
        self.batched.value()
    }

    /// Number of queries answered by in-batch deduplication so far.
    #[must_use]
    pub fn dedup_hit_count(&self) -> u64 {
        self.dedup_hits.value()
    }

    /// Adaptive-batching decisions to wait for the fill window so far.
    #[must_use]
    pub fn adaptive_wait_count(&self) -> u64 {
        self.adaptive_waits.value()
    }

    /// Adaptive-batching decisions to skip the fill window so far.
    #[must_use]
    pub fn adaptive_skip_count(&self) -> u64 {
        self.adaptive_skips.value()
    }

    /// Per-query shard failures observed by the router so far.
    #[must_use]
    pub fn shard_error_count(&self) -> u64 {
        self.shard_errors.value()
    }

    /// Routed responses served with at least one shard missing so far.
    #[must_use]
    pub fn partial_response_count(&self) -> u64 {
        self.partial_responses.value()
    }

    /// Records a TCP connection opening.
    pub fn record_conn_open(&self) {
        self.conns_active.inc();
    }

    /// Records a TCP connection closing (for any reason).  The gauge
    /// saturates at zero: close without open would underflow only on a
    /// caller bug, and a huge bogus gauge is worse than a clamped one.
    pub fn record_conn_close(&self) {
        self.conns_active.dec();
    }

    /// Records a connection refused by the `--max-conns` cap.
    pub fn record_conn_rejected(&self) {
        self.conns_rejected.inc();
    }

    /// Records a connection closed by the idle timeout.
    pub fn record_idle_disconnect(&self) {
        self.idle_disconnects.inc();
    }

    /// TCP connections currently open.
    #[must_use]
    pub fn active_conn_count(&self) -> u64 {
        self.conns_active.value()
    }

    /// TCP connections refused by the connection cap so far.
    #[must_use]
    pub fn rejected_conn_count(&self) -> u64 {
        self.conns_rejected.value()
    }

    /// TCP connections closed by the idle timeout so far.
    #[must_use]
    pub fn idle_disconnect_count(&self) -> u64 {
        self.idle_disconnects.value()
    }

    /// Wall-clock time since the stats were created.
    #[must_use]
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Queries per second over the whole uptime.
    #[must_use]
    pub fn qps(&self) -> f64 {
        let secs = self.uptime().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.query_count() as f64 / secs
        }
    }

    /// Percentile summary (p50/p95/p99/p99.9) of every query latency
    /// recorded so far, derived from the atomic histogram.
    #[must_use]
    pub fn latency_summary(&self) -> LatencySummary {
        self.latency.summary()
    }

    /// Renders the Prometheus-style text exposition of every registered
    /// metric (the `!metrics` protocol command).
    #[must_use]
    pub fn render_metrics(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Renders a one-stop report (used by the `!stats` protocol command).
    #[must_use]
    pub fn render(&self, cache: CacheCounters, generation: u64) -> String {
        let latency = self.latency_summary();
        format!(
            "queries={} errors={} shed={} expired={} deadline_exceeded={} retry_exhausted={} \
             batched={} dedup_hits={} adaptive_waits={} \
             adaptive_skips={} shard_errors={} partial={} qps={:.1} generation={} \
             blocks_scored={} blocks_skipped={} \
             cache_hit_rate={:.3} cache_hits={} cache_misses={} cache_evictions={} \
             cache_rejected={} conns={} conns_rejected={} idle_closed={} latency[{latency}]",
            self.query_count(),
            self.error_count(),
            self.shed_count(),
            self.expired_count(),
            self.deadline_exceeded_count(),
            self.retry_budget_exhausted_count(),
            self.batched_count(),
            self.dedup_hit_count(),
            self.adaptive_wait_count(),
            self.adaptive_skip_count(),
            self.shard_error_count(),
            self.partial_response_count(),
            self.qps(),
            generation,
            self.blocks_scored_count(),
            self.blocks_skipped_count(),
            cache.hit_rate(),
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.rejections,
            self.active_conn_count(),
            self.rejected_conn_count(),
            self.idle_disconnect_count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_percentiles_accumulate() {
        let stats = ServerStats::new();
        for i in 1..=100u64 {
            stats.record_query(Duration::from_micros(i));
        }
        stats.record_error();
        assert_eq!(stats.query_count(), 100);
        assert_eq!(stats.error_count(), 1);
        let summary = stats.latency_summary();
        assert_eq!(summary.samples, 100);
        // Histogram percentiles report bucket upper bounds: never below the
        // exact percentile, at most 2x over.
        assert!(summary.p50 >= Duration::from_micros(50), "p50 {:?}", summary.p50);
        assert!(summary.p50 <= Duration::from_micros(100), "p50 {:?}", summary.p50);
        assert!(summary.p99 >= Duration::from_micros(99), "p99 {:?}", summary.p99);
        assert_eq!(summary.max, Duration::from_micros(100));
        assert!(stats.qps() > 0.0);
        let report = stats.render(CacheCounters::default(), 7);
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
        let summary = stats.latency_summary();
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
        stats.record_shed();
        stats.record_shed();
        stats.record_batch(1); // unbatched fast path: not counted
        stats.record_batch(4);
        stats.record_batch(3);
        stats.record_dedup_hits(0);
        stats.record_dedup_hits(5);
        assert_eq!(stats.shed_count(), 2);
        assert_eq!(stats.batch_count(), 2);
        assert_eq!(stats.batched_count(), 7);
        assert_eq!(stats.dedup_hit_count(), 5);
        let report = stats.render(CacheCounters::default(), 1);
        assert!(report.contains("shed=2"), "{report}");
        assert!(report.contains("batched=7"), "{report}");
        assert!(report.contains("dedup_hits=5"), "{report}");
    }

    #[test]
    fn adaptive_and_router_counters_accumulate_and_render() {
        let stats = ServerStats::new();
        stats.record_adaptive_decision(true);
        stats.record_adaptive_decision(false);
        stats.record_adaptive_decision(false);
        stats.record_shard_errors(0);
        stats.record_shard_errors(2);
        stats.record_partial_responses(1);
        assert_eq!(stats.adaptive_wait_count(), 1);
        assert_eq!(stats.adaptive_skip_count(), 2);
        assert_eq!(stats.shard_error_count(), 2);
        assert_eq!(stats.partial_response_count(), 1);
        let report = stats.render(CacheCounters::default(), 1);
        assert!(report.contains("adaptive_waits=1"), "{report}");
        assert!(report.contains("adaptive_skips=2"), "{report}");
        assert!(report.contains("shard_errors=2"), "{report}");
        assert!(report.contains("partial=1"), "{report}");
    }

    #[test]
    fn deadline_counters_accumulate_and_render() {
        let stats = ServerStats::new();
        stats.record_expired_shed();
        stats.record_deadline_exceeded(DeadlineStage::Exec);
        stats.record_deadline_exceeded(DeadlineStage::Scatter);
        stats.record_deadline_exceeded(DeadlineStage::Scatter);
        stats.record_retry_budget_exhausted();
        stats.record_remaining_budget(Duration::from_millis(3));
        assert_eq!(stats.expired_count(), 1);
        assert_eq!(stats.shed_count(), 1, "an expired shed is still a shed");
        assert_eq!(stats.deadline_exceeded_stage_count(DeadlineStage::Exec), 1);
        assert_eq!(stats.deadline_exceeded_stage_count(DeadlineStage::Scatter), 2);
        assert_eq!(stats.deadline_exceeded_count(), 4);
        assert_eq!(stats.retry_budget_exhausted_count(), 1);
        assert_eq!(stats.remaining_budget_histogram().count(), 1);
        let report = stats.render(CacheCounters::default(), 1);
        assert!(report.contains("expired=1"), "{report}");
        assert!(report.contains("deadline_exceeded=4"), "{report}");
        assert!(report.contains("retry_exhausted=1"), "{report}");
        // The full stage family and the budget metrics are registered
        // eagerly, traffic or not.
        let text = ServerStats::new().render_metrics();
        for stage in DeadlineStage::ALL {
            assert!(
                text.contains(&format!("stage=\"{}\"", stage.as_str())),
                "missing deadline stage {} in exposition",
                stage.as_str()
            );
        }
        assert!(text.contains(RETRY_BUDGET_METRIC), "{text}");
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
        assert_eq!(stats.blocks_scored_count(), 15);
        assert_eq!(stats.blocks_skipped_count(), 90);
        let report = stats.render(CacheCounters::default(), 1);
        assert!(report.contains("blocks_scored=15"), "{report}");
        assert!(report.contains("blocks_skipped=90"), "{report}");
        // Registered eagerly: the exposition lists both series pre-traffic.
        let text = ServerStats::new().render_metrics();
        assert!(text.contains(BLOCKS_SCORED_METRIC), "{text}");
        assert!(text.contains(BLOCKS_SKIPPED_METRIC), "{text}");
    }

    #[test]
    fn traces_feed_the_stage_histogram_family() {
        let stats = ServerStats::new();
        let mut trace = QueryTrace::new(1);
        trace.record(Stage::Parse, Duration::from_nanos(400));
        trace.record(Stage::Postings, Duration::from_micros(9));
        stats.record_trace(&trace);
        stats.record_trace(&trace);
        assert_eq!(stats.stage_histogram(Stage::Parse).count(), 2);
        assert_eq!(stats.stage_histogram(Stage::Postings).count(), 2);
        assert_eq!(stats.stage_histogram(Stage::Merge).count(), 0);
        // Every stage family member is registered eagerly, so the exposition
        // lists them all even without traffic.
        let text = stats.render_metrics();
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
        let text = stats.render_metrics();
        assert!(text.contains("shard=\"127.0.0.1:7471\""), "{text}");
    }
}
