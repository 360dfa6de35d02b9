//! The query engine: snapshot + cache + stats, the [`Executor`] behind
//! `dsearch serve`.
//!
//! [`QueryEngine::execute_batch`] is the serving path (the shared
//! `BatchFrame` around cache probe → evaluation); [`QueryEngine::execute`]
//! is the batch-of-one convenience.  [`WorkerPool`] is the shared [`Pool`]
//! over an engine: a query that finds an execution slot free runs on the
//! thread that brought it; each worker drains up to `max_batch` of the
//! queries that had to queue at a time, so a backlog turns into shared work
//! (one snapshot load, one evaluation per distinct canonical query) instead
//! of per-request overhead.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use dsearch_obs::{QueryTrace, Stage};
use dsearch_persist::{IndexStore, PersistError};
use dsearch_query::{evaluate, ParseError, Scorer, SearchResults};

use crate::batch::{Answer, BatchConfig, BatchFrame, Executor, Pending, Pool};
use crate::cache::{AdmissionPolicy, CacheCounters, CacheKey, CacheKeyRef, QueryCache};
use crate::protocol::{render_error_text, render_info, render_response};
use crate::snapshot::{IndexSnapshot, SnapshotCell};
use crate::stats::{DeadlineStage, Metric, ServerStats};

/// Hits an answer holds by default (`--limit`), on a shard and on a router.
pub(crate) const DEFAULT_RESULT_LIMIT: usize = 20;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Queries (or batches) the pool executes at once — its execution slots,
    /// and the worker threads it spawns for what has to queue.
    pub workers: usize,
    /// Total cached query results across all shards.
    pub cache_capacity: usize,
    /// Number of cache shards (locks).
    pub cache_shards: usize,
    /// Whether inserts into a full cache must pass the TinyLFU frequency
    /// filter (`--cache-admission lfu|all`).
    pub cache_admission: AdmissionPolicy,
    /// Cap on hits kept per response (and per cache entry).
    pub result_limit: usize,
    /// Batching and admission-control parameters for the worker pool.
    pub batch: BatchConfig,
    /// Deadline applied to queries that carry no `@d=<ms>` budget of their
    /// own (`--default-deadline-ms`).  `None`: no implicit deadline.
    pub default_deadline: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism().map_or(4, usize::from).min(16),
            cache_capacity: 4096,
            cache_shards: 8,
            cache_admission: AdmissionPolicy::default(),
            result_limit: DEFAULT_RESULT_LIMIT,
            batch: BatchConfig::default(),
            default_deadline: None,
        }
    }
}

/// An invalid [`EngineConfig`], reported at engine construction instead of
/// producing a pool that can never make progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0`: no thread would ever drain the queue.
    NoWorkers,
    /// `cache_shards == 0`: the cache would have no shard to store into.
    NoCacheShards,
    /// `batch.max_batch == 0`: a worker would drain nothing per wakeup.
    EmptyBatch,
    /// A router was built with no shard backends to scatter to.
    NoShards,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoWorkers => f.write_str("workers must be at least 1"),
            ConfigError::NoCacheShards => f.write_str("cache_shards must be at least 1"),
            ConfigError::EmptyBatch => f.write_str("max_batch must be at least 1"),
            ConfigError::NoShards => f.write_str("at least one shard backend is required"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl EngineConfig {
    /// Checks the configuration for values that would deadlock or disable
    /// the serving path.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::NoWorkers);
        }
        if self.cache_shards == 0 {
            return Err(ConfigError::NoCacheShards);
        }
        if self.batch.max_batch == 0 {
            return Err(ConfigError::EmptyBatch);
        }
        Ok(())
    }
}

/// Errors surfaced to protocol clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The query did not parse.
    Parse(ParseError),
    /// The request was shed by admission control.
    Overloaded,
    /// The worker pool is shutting down.
    ShuttingDown,
    /// Every shard failed for a scatter-gathered query: there is no partial
    /// result left to serve.
    AllShardsFailed,
    /// The query's deadline budget ran out before an answer was produced.
    /// Reported distinctly from errors: the server was healthy, the caller's
    /// time budget was not.
    DeadlineExceeded,
    /// Answering the query's batch panicked.  The worker caught it and lives
    /// on; the failure is counted in `errors=`.
    Panicked,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Parse(e) => write!(f, "invalid query: {e}"),
            ServerError::Overloaded => f.write_str("server overloaded: request shed"),
            ServerError::ShuttingDown => f.write_str("server is shutting down"),
            ServerError::AllShardsFailed => f.write_str("all shards failed"),
            ServerError::DeadlineExceeded => {
                f.write_str("deadline_exceeded: query budget exhausted")
            }
            ServerError::Panicked => f.write_str("internal error: query execution panicked"),
        }
    }
}

impl std::error::Error for ServerError {}

/// One answered query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Canonical (parsed-and-rendered) query text.
    pub query: String,
    /// Ranked hits, truncated to the engine's result limit.
    pub results: Arc<SearchResults>,
    /// Snapshot generation the answer came from.
    pub generation: u64,
    /// Whether the result was served from cache.
    pub cached: bool,
    /// Wall-clock service time, from submission to the end of the batch that
    /// answered.  A query the pool ran where it arrived (a slot was free) is
    /// a batch of one submitted the instant it ran: this is its own engine
    /// time.  For a query that had to queue it runs from the batch's earliest
    /// submission until the whole batch finished, so queue wait is
    /// included; every query in a batch shares
    /// the value — no response is released before its batch completes, so
    /// this approximates what the client observes, not the query's share of
    /// the evaluation work.  Direct [`QueryEngine::execute`] calls time only
    /// the engine itself.
    pub latency: Duration,
    /// The query's stage timing record.  Spans are shared by the whole batch
    /// (one parse/snapshot/eval pass serves every query in it); the id is
    /// per query when the request carried a `@<hex>` trace-id prefix and
    /// zero otherwise.
    pub trace: Arc<QueryTrace>,
}

/// The shared serving state.
#[derive(Debug)]
pub struct QueryEngine {
    snapshot: SnapshotCell,
    cache: QueryCache,
    stats: ServerStats,
    config: EngineConfig,
    /// Store directory `!reload` re-reads; unset disables reloads.
    store_path: OnceLock<PathBuf>,
}

impl QueryEngine {
    /// Builds an engine serving `snapshot` under `config`.
    ///
    /// # Errors
    ///
    /// Fails when the configuration is invalid (zero workers, zero cache
    /// shards, empty batches) — see [`EngineConfig::validate`].
    pub fn new(snapshot: IndexSnapshot, config: EngineConfig) -> Result<Arc<Self>, ConfigError> {
        config.validate()?;
        let stats = ServerStats::with_index();
        Ok(Arc::new(QueryEngine {
            snapshot: SnapshotCell::new(snapshot),
            cache: QueryCache::with_admission(
                config.cache_capacity,
                config.cache_shards,
                config.cache_admission,
            )
            .counting_into(&stats),
            stats,
            config,
            store_path: OnceLock::new(),
        }))
    }

    /// Names the store [`reload`](QueryEngine::reload) re-reads.  The first
    /// caller decides; an engine serves one store.
    pub fn reload_from(&self, store_path: PathBuf) {
        let _ = self.store_path.set(store_path);
    }

    /// Re-reads the store and publishes it as the next snapshot generation,
    /// returning that generation; `None` when no store path was given.
    pub fn reload(&self) -> Option<Result<u64, PersistError>> {
        let path = self.store_path.get()?;
        Some(IndexStore::open(path).and_then(|store| self.snapshot.reload(&store)))
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The snapshot slot (for publishing new generations).
    #[must_use]
    pub fn snapshot_cell(&self) -> &SnapshotCell {
        &self.snapshot
    }

    /// The live serving counters.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Snapshot of the cache counters.
    #[must_use]
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache.counters()
    }

    /// Heap bytes held by the served snapshot and by the result cache (keys,
    /// hit vectors and path text), computed from their own lengths and
    /// capacities — no allocator hooks.
    #[must_use]
    pub fn resident_bytes(&self) -> (usize, usize) {
        let cache = self.cache.resident_bytes(|results| {
            results.heap_bytes() + results.hits().iter().map(|hit| hit.path.len()).sum::<usize>()
        });
        (self.snapshot.load().resident_bytes(), cache)
    }

    /// The rendered stats report (the `!stats` protocol answer), including
    /// the served snapshot's compressed-index footprint.
    #[must_use]
    pub fn stats_report(&self) -> String {
        self.refresh_gauges();
        self.stats.render()
    }

    /// Serves one query synchronously (a batch of one).
    ///
    /// # Errors
    ///
    /// Fails when the query does not parse; the error is also counted in the
    /// engine stats.
    pub fn execute(&self, raw: &str) -> Result<QueryResponse, ServerError> {
        self.execute_batch(&[raw]).pop().expect("one query in, one response out")
    }

    /// Serves a batch of queries against a single snapshot load.
    ///
    /// Identical canonical queries collapse to one evaluation fanned out to
    /// every position (`dedup_hits`).  Responses come back in submission
    /// order; parse failures occupy their slot as errors without failing the
    /// rest of the batch.
    #[must_use]
    pub fn execute_batch(&self, raws: &[&str]) -> Vec<Result<QueryResponse, ServerError>> {
        self.run_batch(raws, Instant::now())
    }
}

impl Executor for QueryEngine {
    type Response = QueryResponse;

    fn stats(&self) -> &ServerStats {
        &self.stats
    }

    fn batch_config(&self) -> BatchConfig {
        self.config.batch
    }

    fn workers(&self) -> usize {
        self.config.workers
    }

    fn default_deadline(&self) -> Option<Duration> {
        self.config.default_deadline
    }

    fn run_batch(
        &self,
        raws: &[&str],
        started: Instant,
    ) -> Vec<Result<QueryResponse, ServerError>> {
        let mut frame = BatchFrame::open(raws, started, self.config.default_deadline, &self.stats);
        // One snapshot load for the whole batch: every query in it shares a
        // generation, and a concurrent publish cannot tear the image.
        let snapshot = self.snapshot.load();
        let generation = snapshot.generation();
        let snapshot_done = Instant::now();
        frame
            .trace
            .record(Stage::SnapshotLoad, snapshot_done.saturating_duration_since(frame.parse_done));

        let mut lookups = Duration::ZERO;
        for (canonical, group) in std::mem::take(&mut frame.groups) {
            // Deadline checkpoint between batch members.
            let mut live = group.positions;
            frame.retain_live(&mut live, Instant::now(), DeadlineStage::Exec);
            if live.is_empty() {
                continue;
            }
            let probe = CacheKeyRef { query: &canonical, generation };
            let (results, cached) = match self.cache.get(probe) {
                Some(results) => (results, true),
                None => {
                    let deadline = frame.group_deadline(&live);
                    // One evaluator for every shape, bounded at the result
                    // limit the response would be truncated to anyway, so a
                    // cached entry holds exactly what the wire can render:
                    // BM25 top-k with MaxScore pruning where the query can be
                    // scored, the constant scorer for prefix terms and
                    // exclusions.
                    let (results, prune) = evaluate(
                        snapshot.shards(),
                        snapshot.docs(),
                        &group.query,
                        Scorer::Bm25,
                        self.config.result_limit,
                        &|| deadline.is_some_and(|deadline| Instant::now() >= deadline),
                    );
                    lookups += prune.lookup;
                    self.stats.record_prune(prune);
                    if prune.cancelled {
                        // The evaluation was stopped mid-flight: the partial
                        // result is dead work — never cached, never served.
                        frame.expire(&live, DeadlineStage::Exec);
                        continue;
                    }
                    let results = Arc::new(results);
                    let key = CacheKey { query: canonical.clone(), generation };
                    self.cache.insert(key, Arc::clone(&results));
                    (results, false)
                }
            };
            let response = QueryResponse {
                query: canonical,
                results,
                generation,
                cached,
                latency: Duration::ZERO,
                trace: Arc::clone(&frame.unfinished),
            };
            frame.answer(&live, Ok(response));
        }
        // Evaluation splits into posting-list resolution — dictionary
        // lookups, cursor opening, prefix unions — and everything else:
        // leapfrog/merge/rank plus cache probes.
        let eval = snapshot_done.elapsed();
        frame.trace.record(Stage::Postings, lookups);
        frame.trace.record(Stage::IntersectMerge, eval.saturating_sub(lookups));
        frame.close()
    }

    fn refresh_gauges(&self) {
        let snapshot = self.snapshot.load();
        let (resident, cache_bytes) = self.resident_bytes();
        let set = |metric, value: u64| self.stats.gauge(metric).set(value);
        set(Metric::Generation, snapshot.generation());
        set(Metric::SnapshotShards, snapshot.shard_count() as u64);
        set(Metric::SnapshotPostings, snapshot.posting_count());
        set(Metric::SnapshotPostingBytes, snapshot.posting_bytes() as u64);
        set(Metric::SnapshotRawBytes, snapshot.uncompressed_posting_bytes() as u64);
        self.stats.gauge(Metric::SnapshotLoad).set_duration(snapshot.load_time());
        set(Metric::SnapshotResident, resident as u64);
        set(Metric::CacheEntries, self.cache.len() as u64);
        set(Metric::CacheResident, cache_bytes as u64);
    }

    fn stats_answer(&self) -> String {
        render_info(&self.stats_report())
    }

    fn reload_answer(&self) -> String {
        match self.reload() {
            None => {
                render_error_text("reload unavailable: service was started without a store path")
            }
            Some(Ok(generation)) => render_info(&format!("reloaded generation={generation}")),
            Some(Err(e)) => render_error_text(&format!("reload failed: {e}")),
        }
    }
}

impl Answer for QueryResponse {
    fn query(&self) -> &str {
        &self.query
    }

    fn latency(&self) -> Duration {
        self.latency
    }

    fn trace(&self) -> &QueryTrace {
        &self.trace
    }

    fn stamp(&mut self, latency: Duration, trace: Arc<QueryTrace>) {
        self.latency = latency;
        self.trace = trace;
    }

    fn render(&self) -> String {
        render_response(self)
    }
}

/// The shared [`Pool`] over a [`QueryEngine`].
pub type WorkerPool = Pool<QueryEngine>;

/// A query submitted to a [`WorkerPool`], waiting for its worker.
pub type PendingResponse = Pending<QueryResponse>;

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_index::{DocTable, InMemoryIndex};
    use dsearch_text::Term;

    fn engine(config: EngineConfig) -> Arc<QueryEngine> {
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for (path, words) in [
            ("a.txt", vec!["rust", "parallel", "index"]),
            ("b.txt", vec!["rust", "search"]),
            ("c.txt", vec!["java", "search"]),
        ] {
            let id = docs.insert(path);
            index.insert_file(id, words.into_iter().map(Term::from));
        }
        QueryEngine::new(IndexSnapshot::from_index(index, docs, 1), config).unwrap()
    }

    #[test]
    fn invalid_configs_are_rejected_at_construction() {
        for (config, expected) in [
            (EngineConfig { workers: 0, ..EngineConfig::default() }, ConfigError::NoWorkers),
            (
                EngineConfig { cache_shards: 0, ..EngineConfig::default() },
                ConfigError::NoCacheShards,
            ),
            (
                EngineConfig {
                    batch: BatchConfig { max_batch: 0, ..BatchConfig::default() },
                    ..EngineConfig::default()
                },
                ConfigError::EmptyBatch,
            ),
        ] {
            let mut docs = DocTable::new();
            let id = docs.insert("a.txt");
            let mut index = InMemoryIndex::new();
            index.insert_file(id, [Term::from("rust")]);
            let err = QueryEngine::new(IndexSnapshot::from_index(index, docs, 1), config.clone())
                .unwrap_err();
            assert_eq!(err, expected, "config {config:?}");
            assert!(!err.to_string().is_empty());
            assert_eq!(config.validate().unwrap_err(), expected);
        }
        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    fn execute_answers_and_caches() {
        let engine = engine(EngineConfig::default());
        let first = engine.execute("rust search").unwrap();
        assert!(!first.cached);
        assert_eq!(first.results.paths(), vec!["b.txt"]);
        assert_eq!(first.generation, 1);
        assert_eq!(first.query, "rust AND search");

        // Different spelling, same canonical query: served from cache.
        let second = engine.execute("RUST AND search").unwrap();
        assert!(second.cached);
        assert_eq!(second.results.paths(), vec!["b.txt"]);
        assert_eq!(engine.cache_counters().hits, 1);
        assert_eq!(engine.stats().get(Metric::Queries), 2);
    }

    #[test]
    fn parse_errors_are_counted_not_cached() {
        let engine = engine(EngineConfig::default());
        let err = engine.execute("AND").unwrap_err();
        assert!(matches!(err, ServerError::Parse(_)));
        assert!(err.to_string().contains("invalid query"));
        assert_eq!(engine.stats().get(Metric::Errors), 1);
        assert_eq!(engine.stats().get(Metric::Queries), 0);
    }

    #[test]
    fn batch_deduplicates_identical_canonical_queries() {
        let engine = engine(EngineConfig::default());
        let raws = ["rust search", "RUST  AND search", "rust", "rust AND search"];
        let responses = engine.execute_batch(&raws);
        assert_eq!(responses.len(), 4);
        for (i, response) in responses.iter().enumerate() {
            let response = response.as_ref().unwrap();
            assert_eq!(response.generation, 1, "slot {i}");
        }
        // Three spellings of "rust AND search" share one evaluation and one
        // result Arc; "rust" is its own evaluation.
        assert!(Arc::ptr_eq(
            &responses[0].as_ref().unwrap().results,
            &responses[1].as_ref().unwrap().results
        ));
        assert!(Arc::ptr_eq(
            &responses[0].as_ref().unwrap().results,
            &responses[3].as_ref().unwrap().results
        ));
        let counters = engine.cache_counters();
        assert_eq!(counters.misses, 2, "one probe per distinct canonical query");
        assert_eq!(counters.hits, 0);
        assert_eq!(engine.stats().get(Metric::DedupHits), 2);
        assert_eq!(engine.stats().get(Metric::Batched), 4);
        assert_eq!(engine.stats().get(Metric::Batches), 1);
        assert_eq!(engine.stats().get(Metric::Queries), 4);
    }

    #[test]
    fn stats_and_metrics_report_one_footprint() {
        let engine = engine(EngineConfig::default());
        let (snapshot, empty_cache) = engine.resident_bytes();
        assert!(snapshot > 0);
        assert_eq!(empty_cache, 0);
        engine.execute("rust").unwrap();
        engine.execute("ru* NOT java").unwrap();
        let (_, cache) = engine.resident_bytes();
        assert!(cache > 0);
        let stats = engine.stats_report();
        assert!(stats.contains(&format!(" resident_bytes={snapshot}] ")), "{stats}");
        assert!(stats.ends_with(&format!("cache[entries=2 bytes={cache}]")), "{stats}");
        // An image that was never on disk took no time to load.
        assert!(stats.contains(" load_ms=0.0 "), "{stats}");
        engine.refresh_gauges();
        let metrics = engine.stats().registry().render_prometheus();
        let series = |metric: Metric| metric.row().series;
        assert!(metrics.contains(&format!("{} 0.000000\n", series(Metric::SnapshotLoad))));
        assert!(metrics.contains(&format!("{} {snapshot}\n", series(Metric::SnapshotResident))));
        assert!(metrics.contains(&format!("{} {cache}\n", series(Metric::CacheResident))));
    }

    #[test]
    fn batch_mixes_errors_and_answers_in_order() {
        let engine = engine(EngineConfig::default());
        let responses = engine.execute_batch(&["rust", "AND", "search"]);
        assert_eq!(responses.len(), 3);
        assert!(responses[0].is_ok());
        assert!(matches!(responses[1], Err(ServerError::Parse(_))));
        assert!(responses[2].is_ok());
        assert_eq!(engine.stats().get(Metric::Errors), 1);
        assert_eq!(engine.stats().get(Metric::Queries), 2);
    }

    #[test]
    fn batch_results_match_individual_execution() {
        let solo = engine(EngineConfig::default());
        let batched = engine(EngineConfig::default());
        let raws =
            ["rust", "search", "rust search", "java OR rust", "par*", "rust NOT java", "rust"];
        let batch_responses = batched.execute_batch(&raws);
        for (raw, batch_response) in raws.iter().zip(batch_responses) {
            let expected = solo.execute(raw).unwrap();
            let got = batch_response.unwrap();
            assert_eq!(got.results.hits(), expected.results.hits(), "query {raw:?}");
            assert_eq!(got.query, expected.query);
        }
    }

    #[test]
    fn publish_invalidates_via_generation() {
        let engine = engine(EngineConfig::default());
        let before = engine.execute("rust").unwrap();
        assert_eq!(before.generation, 1);
        assert_eq!(before.results.len(), 2);

        // Publish generation 2 with one more rust document.
        let mut docs = DocTable::new();
        let id = docs.insert("d.txt");
        let mut index = InMemoryIndex::new();
        index.insert_file(id, [Term::from("rust")]);
        engine.snapshot_cell().publish(IndexSnapshot::from_index(index, docs, 2));

        let after = engine.execute("rust").unwrap();
        assert_eq!(after.generation, 2);
        assert!(!after.cached, "old generation's cache entry must not serve generation 2");
        assert_eq!(after.results.paths(), vec!["d.txt"]);
        assert!(engine.stats_report().contains("generation=2"));
    }

    #[test]
    fn expired_queries_answer_deadline_exceeded_and_never_cache() {
        let engine = engine(EngineConfig::default());
        // A zero budget is expired by the time the group checkpoint runs.
        let err = engine.execute("@d=0 rust").unwrap_err();
        assert_eq!(err, ServerError::DeadlineExceeded);
        assert!(err.to_string().starts_with("deadline_exceeded"), "{err}");
        assert_eq!(engine.cache_counters().insertions, 0, "dead work must not be cached");
        assert_eq!(engine.stats().deadline_exceeded(crate::stats::DeadlineStage::Exec), 1);
        // Deadline misses are not errors.
        assert_eq!(engine.stats().get(Metric::Errors), 0);
        // A generous budget answers normally and caches.
        let ok = engine.execute("@d=60000 rust").unwrap();
        assert_eq!(ok.results.len(), 2);
        assert_eq!(engine.cache_counters().insertions, 1);
    }

    #[test]
    fn cache_hits_still_honor_the_callers_deadline() {
        let engine = engine(EngineConfig::default());
        assert!(engine.execute("rust").is_ok());
        assert_eq!(engine.cache_counters().insertions, 1);
        // The answer is cached, but this caller's budget is already gone: a
        // hit cannot resurrect a dead query.
        let err = engine.execute("@d=0 rust").unwrap_err();
        assert_eq!(err, ServerError::DeadlineExceeded);
    }

    #[test]
    fn default_deadline_applies_to_plain_queries() {
        let engine = engine(EngineConfig {
            default_deadline: Some(Duration::ZERO),
            ..EngineConfig::default()
        });
        assert_eq!(engine.execute("rust").unwrap_err(), ServerError::DeadlineExceeded);
        // An explicit budget overrides the default.
        assert!(engine.execute("@d=60000 rust").is_ok());
    }

    #[test]
    fn mixed_deadline_batch_answers_live_positions_only() {
        let engine = engine(EngineConfig::default());
        let responses = engine.execute_batch(&["@d=0 rust", "rust", "@d=60000 rust"]);
        assert!(matches!(responses[0], Err(ServerError::DeadlineExceeded)));
        assert!(responses[1].is_ok());
        assert!(responses[2].is_ok());
        // The live positions shared one evaluation.
        assert_eq!(engine.stats().get(Metric::DedupHits), 1);
    }

    #[test]
    fn result_limit_truncates_responses() {
        let engine = engine(EngineConfig { result_limit: 1, ..EngineConfig::default() });
        let response = engine.execute("rust").unwrap();
        assert_eq!(response.results.len(), 1);
    }

    #[test]
    fn worker_pool_serves_concurrent_clients() {
        let engine = engine(EngineConfig { workers: 4, ..EngineConfig::default() });
        let pool = Arc::new(WorkerPool::start(Arc::clone(&engine)));
        assert_eq!(pool.worker_count(), 4);

        let mut clients = Vec::new();
        for t in 0..6 {
            let pool = Arc::clone(&pool);
            clients.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let raw = if (t + i) % 2 == 0 { "rust" } else { "search" };
                    let response = pool.execute(raw).unwrap();
                    assert!(!response.results.is_empty());
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(pool.queue_depth(), 0);
        let pool = Arc::try_unwrap(pool).ok().expect("all clients done");
        assert_eq!(pool.shutdown(), 300);
        assert_eq!(engine.stats().get(Metric::Queries), 300);
        // Every query either probed the cache once (hit or miss) or
        // piggybacked on an identical query in its batch.
        let counters = engine.cache_counters();
        assert_eq!(counters.hits + counters.misses + engine.stats().get(Metric::DedupHits), 300);
        // 2 distinct queries × 1 generation: only the first evaluations can
        // miss (racing workers may each miss once).
        assert!(counters.misses >= 2, "{counters:?}");
        assert!(counters.misses <= 2 * engine.config().workers as u64, "{counters:?}");
    }

    #[test]
    fn bounded_pool_sheds_when_overfilled() {
        // One worker, queue bound 1, reject-new: with the worker wedged on a
        // first query, at most 1 more fits; further submissions shed.
        let engine = engine(EngineConfig {
            workers: 1,
            cache_capacity: 1,
            batch: BatchConfig { max_batch: 1, queue_bound: 1 },
            ..EngineConfig::default()
        });
        let pool = WorkerPool::start(Arc::clone(&engine));
        // Saturate: submit faster than the single worker can possibly drain
        // by never waiting, with every query distinct so none is a cheap
        // cache hit.  At least one submission must shed once the queue holds
        // `queue_bound` jobs.
        let mut pendings = Vec::new();
        let mut shed = 0;
        for i in 0..200 {
            match pool.submit(format!("par* OR rust q{i}")) {
                Ok(pending) => pendings.push(pending),
                Err(ServerError::Overloaded) => shed += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(shed > 0, "200 instant submissions through a depth-1 queue never shed");
        assert_eq!(engine.stats().get(Metric::Shed), shed);
        for pending in pendings {
            pending.wait().unwrap();
        }
        pool.shutdown();
    }

    #[test]
    fn submitting_after_shutdown_fails_cleanly() {
        let engine = engine(EngineConfig { workers: 1, ..EngineConfig::default() });
        let pool = WorkerPool::start(engine);
        let pending = pool.submit("rust").unwrap();
        assert!(pending.wait().is_ok());
        let served = pool.shutdown();
        assert_eq!(served, 1);
    }
}
