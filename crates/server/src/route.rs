//! Distributed scatter-gather serving: the [`ShardBackend`] seam and the
//! [`Router`] behind `dsearch route`.
//!
//! PRs 1–4 built a single-process serving stack: one `IndexSnapshot`, one
//! worker pool, one line-protocol front end.  This module makes query
//! execution generic over *where the shards live*:
//!
//! * [`ShardBackend`] — anything that can answer a canonical query with
//!   ranked hits and report a stats line.  Two implementations:
//!   [`LocalShards`] (today's sealed-snapshot path through a
//!   [`QueryEngine`], unchanged semantics) and [`RemoteShard`] (a pooled TCP
//!   client speaking the existing line protocol to a `dsearch serve`
//!   process — the same bytes a human types at the prompt).
//! * [`Router`] — fans each query (and each drained batch) out to every
//!   backend concurrently, merges the per-shard rankings through the k-way
//!   machinery in [`dsearch_query::merge_ranked`], and degrades gracefully:
//!   a shard that is down or times out costs its hits, not the response —
//!   the answer is flagged `partial=true` and the failure is counted as
//!   `shard_errors=` in `!stats`.  Only when *every* shard fails does the
//!   client see an error.
//! * [`RouterPool`] / [`RouteService`] — the same admission-controlled
//!   batch-draining front end the single-store engine uses (shared
//!   [`QueueGovernor`]), so `--queue-bound`, `--overload`, `--max-batch` and
//!   adaptive batching all apply to the coordinator too, and `dsearch
//!   route` plugs into the stdin/TCP front ends through
//!   [`LineHandler`].
//!
//! Shard-local file ids do not survive the wire (every `dsearch serve`
//! process numbers its own documents from zero), so cross-shard merging keys
//! on paths — see [`RankedHit`].

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dsearch_obs::{next_trace_id, Histogram, MetricsRegistry, QueryTrace, ShardSpan, Span, Stage};
use dsearch_persist::IndexStore;
use dsearch_query::{merge_ranked, Query, RankedHit};

use crate::batch::{BatchConfig, QueueGovernor, QueueJob};
use crate::cache::{CacheCounters, CacheKey, QueryCache};
use crate::engine::{ConfigError, QueryEngine, ServerError};
use crate::protocol::{
    parse_hit_line, parse_request, prefix_deadline_ms, prefix_trace_id, read_response,
    render_error, render_error_text, render_info_with_body, render_routed_response,
    split_request_meta, Request,
};
use crate::serve::{
    metrics_report, observe_slow, slow_report, trace_control, Handled, LineHandler,
};
use crate::stats::{DeadlineStage, ServerStats};

/// Why a shard could not answer a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The shard could not be reached, timed out, or died mid-exchange.
    Unavailable(String),
    /// The shard answered with a protocol-level `ERR` (overloaded, shutting
    /// down, …).
    Rejected(String),
    /// The shard answered bytes that did not parse as a protocol response.
    Protocol(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Unavailable(msg) => write!(f, "unavailable: {msg}"),
            ShardError::Rejected(msg) => write!(f, "rejected: {msg}"),
            ShardError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// One shard's answer to one query.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReply {
    /// Ranked hits, already truncated to the shard's own result limit.
    pub hits: Vec<RankedHit>,
    /// The shard-local snapshot generation that answered (shards reload
    /// independently, so generations are not comparable across shards).
    pub generation: u64,
    /// The shard's own stage breakdown for the batch that answered (empty on
    /// the untraced fast path, or when the shard predates tracing).
    pub stages: Vec<Span>,
}

/// Where a set of index shards lives and how to query it.
///
/// The router treats every backend identically: queries are sent in
/// canonical form (already parsed and re-rendered, so shards never see
/// malformed input), answers come back as path-keyed ranked hits.
pub trait ShardBackend: Send + Sync {
    /// A stable identifier for error reports and `!stats` (an address for
    /// remote shards).
    fn id(&self) -> String;

    /// Answers one canonical query.
    ///
    /// # Errors
    ///
    /// Reports transport failures as [`ShardError::Unavailable`] and
    /// shard-side refusals as [`ShardError::Rejected`].
    fn search(&self, canonical: &str) -> Result<ShardReply, ShardError>;

    /// Answers a batch of canonical queries, one result per input in order.
    /// The default fans out one call per query; remote shards override this
    /// to pipeline the whole batch over one connection.
    fn search_batch(&self, canonicals: &[String]) -> Vec<Result<ShardReply, ShardError>> {
        canonicals.iter().map(|c| self.search(c)).collect()
    }

    /// Answers a batch of canonical queries carrying trace ids — `ids[i]`
    /// belongs to `canonicals[i]`, zero meaning untraced — so a distributed
    /// trace can be joined across the router's and the shard's slow-query
    /// logs.  The default ignores the ids and delegates to
    /// [`search_batch`](ShardBackend::search_batch); backends that understand
    /// tracing also return their stage breakdowns in the replies.
    fn search_batch_traced(
        &self,
        canonicals: &[String],
        ids: &[u64],
    ) -> Vec<Result<ShardReply, ShardError>> {
        let _ = ids;
        self.search_batch(canonicals)
    }

    /// The shard's one-line stats report (the `!stats` status line).
    ///
    /// # Errors
    ///
    /// Reports transport failures as [`ShardError::Unavailable`].
    fn stats_line(&self) -> Result<String, ShardError>;

    /// Asks the shard to republish its snapshot from its store.
    ///
    /// # Errors
    ///
    /// Reports transport failures and shard-side refusals.
    fn reload(&self) -> Result<String, ShardError>;

    /// Per-member reload outcomes, one per underlying backend, so a member
    /// whose reload fails is never indistinguishable from success in an
    /// aggregate line.  The default reports the backend as its own single
    /// member; composite backends (a replica set) fan out.
    fn reload_detailed(&self) -> Vec<(String, Result<String, ShardError>)> {
        vec![(self.id(), self.reload())]
    }

    /// Extra `!stats` body lines describing this backend's internal members
    /// (one line per replica, with breaker state, for a replica set).  The
    /// default has none.
    fn replica_status(&self) -> Vec<String> {
        Vec::new()
    }

    /// Interns this backend's own metrics — replica health gauges, hedge
    /// counters — into `registry`, the router's, so they surface through the
    /// router's `!metrics`.  Called once at router construction; the default
    /// does nothing.
    fn bind_metrics(&self, registry: &MetricsRegistry) {
        let _ = registry;
    }
}

/// Today's in-process serving path as a [`ShardBackend`]: a sealed
/// [`IndexSnapshot`](crate::snapshot::IndexSnapshot) behind a
/// [`QueryEngine`], searched with unchanged semantics.
pub struct LocalShards {
    engine: Arc<QueryEngine>,
    /// Store directory `reload` re-reads; `None` disables reloads.
    store_path: Option<PathBuf>,
    id: String,
}

impl LocalShards {
    /// Wraps `engine` as the backend named `"local"`.
    #[must_use]
    pub fn new(engine: Arc<QueryEngine>) -> Self {
        LocalShards { engine, store_path: None, id: "local".to_owned() }
    }

    /// Sets the backend id (useful when several local backends coexist).
    #[must_use]
    pub fn with_id(mut self, id: impl Into<String>) -> Self {
        self.id = id.into();
        self
    }

    /// Enables `reload` from `path`.
    #[must_use]
    pub fn with_store_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.store_path = Some(path.into());
        self
    }

    /// The engine this backend searches.
    #[must_use]
    pub fn engine(&self) -> &Arc<QueryEngine> {
        &self.engine
    }

    fn convert(
        result: Result<crate::engine::QueryResponse, ServerError>,
        with_stages: bool,
    ) -> Result<ShardReply, ShardError> {
        match result {
            Ok(response) => Ok(ShardReply {
                hits: response.results.ranked(),
                generation: response.generation,
                // Collecting the spans allocates; the untraced fast path
                // skips it since nobody reads shard stages there.
                stages: if with_stages { response.trace.spans().collect() } else { Vec::new() },
            }),
            // The router pre-parses queries, so a parse error here means the
            // two sides disagree about the grammar: a protocol-level fault.
            Err(ServerError::Parse(e)) => Err(ShardError::Protocol(e.to_string())),
            Err(e) => Err(ShardError::Rejected(e.to_string())),
        }
    }
}

impl ShardBackend for LocalShards {
    fn id(&self) -> String {
        self.id.clone()
    }

    fn search(&self, canonical: &str) -> Result<ShardReply, ShardError> {
        LocalShards::convert(self.engine.execute(canonical), false)
    }

    fn search_batch(&self, canonicals: &[String]) -> Vec<Result<ShardReply, ShardError>> {
        let raws: Vec<&str> = canonicals.iter().map(String::as_str).collect();
        self.engine
            .execute_batch(&raws)
            .into_iter()
            .map(|r| LocalShards::convert(r, false))
            .collect()
    }

    fn search_batch_traced(
        &self,
        canonicals: &[String],
        ids: &[u64],
    ) -> Vec<Result<ShardReply, ShardError>> {
        if ids.iter().all(|&id| id == 0) {
            return self.search_batch(canonicals);
        }
        let lines: Vec<String> =
            canonicals.iter().zip(ids).map(|(c, &id)| prefix_trace_id(id, c)).collect();
        let raws: Vec<&str> = lines.iter().map(String::as_str).collect();
        self.engine
            .execute_batch(&raws)
            .into_iter()
            .map(|r| LocalShards::convert(r, true))
            .collect()
    }

    fn stats_line(&self) -> Result<String, ShardError> {
        Ok(self.engine.stats_report())
    }

    fn reload(&self) -> Result<String, ShardError> {
        let Some(path) = &self.store_path else {
            return Err(ShardError::Rejected("reload unavailable: no store path".to_owned()));
        };
        let result =
            IndexStore::open(path).and_then(|store| self.engine.snapshot_cell().reload(&store));
        match result {
            Ok(generation) => Ok(format!("reloaded generation={generation}")),
            Err(e) => Err(ShardError::Rejected(format!("reload failed: {e}"))),
        }
    }
}

impl std::fmt::Debug for LocalShards {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalShards").field("id", &self.id).finish()
    }
}

/// Connection policy for a [`RemoteShard`] client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteShardConfig {
    /// How long a connection attempt may take before the shard counts as
    /// down for this query.
    pub connect_timeout: Duration,
    /// Read/write timeout per exchange: a shard that stops answering
    /// mid-response is treated as down rather than hanging the router.
    pub io_timeout: Duration,
    /// Most idle connections kept for reuse (the pool); `0` disables
    /// pooling (one fresh connection per exchange).
    pub max_pooled: usize,
}

impl Default for RemoteShardConfig {
    fn default() -> Self {
        RemoteShardConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(2),
            max_pooled: 2,
        }
    }
}

/// Why one wire exchange failed, and whether the failure is the signature
/// of a stale pooled connection (safe to retry on a fresh one) rather than
/// of a shard that may have received the request (never re-send).
struct ExchangeFailure {
    error: ShardError,
    stale_connection: bool,
}

/// A pooled TCP client for one `dsearch serve` process, speaking the
/// existing line protocol.
///
/// Connections are checked out per exchange and returned on success; a
/// transport error drops the connection, and the next exchange dials
/// fresh.  An exchange on a pooled connection that fails before anything
/// was delivered — the write errored, or the server closed cleanly before
/// the first response (its idle timeout fired between queries) — retries
/// once on a fresh connection.  Timeouts never retry: a slow shard would
/// execute everything twice.
pub struct RemoteShard {
    addr: String,
    config: RemoteShardConfig,
    pool: Mutex<Vec<TcpStream>>,
}

impl RemoteShard {
    /// A client for the shard server at `addr` (`host:port`) with default
    /// timeouts.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        RemoteShard::with_config(addr, RemoteShardConfig::default())
    }

    /// A client with explicit connection policy.
    #[must_use]
    pub fn with_config(addr: impl Into<String>, config: RemoteShardConfig) -> Self {
        RemoteShard { addr: addr.into(), config, pool: Mutex::new(Vec::new()) }
    }

    /// The address this client dials.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Caps a configured timeout at the caller's remaining budget: waiting
    /// longer than the deadline allows cannot produce a usable answer.
    fn clamp(configured: Duration, budget: Option<Duration>) -> Duration {
        match budget {
            Some(budget) => configured.min(budget.max(Duration::from_millis(1))),
            None => configured,
        }
    }

    fn connect(&self, budget: Option<Duration>) -> Result<TcpStream, ShardError> {
        let addrs = self
            .addr
            .to_socket_addrs()
            .map_err(|e| ShardError::Unavailable(format!("{}: {e}", self.addr)))?;
        let connect_timeout = RemoteShard::clamp(self.config.connect_timeout, budget);
        let io_timeout = RemoteShard::clamp(self.config.io_timeout, budget);
        let mut last: Option<std::io::Error> = None;
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, connect_timeout) {
                Ok(stream) => {
                    // A pipelined batch is one `write_all`, but the next
                    // exchange on the pooled connection would otherwise wait
                    // out the shard's delayed ACK of the last response.
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(io_timeout));
                    let _ = stream.set_write_timeout(Some(io_timeout));
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ShardError::Unavailable(match last {
            Some(e) => format!("{}: {e}", self.addr),
            None => format!("{}: no addresses resolved", self.addr),
        }))
    }

    fn checkin(&self, stream: TcpStream) {
        let mut pool = self.pool.lock();
        if pool.len() < self.config.max_pooled {
            pool.push(stream);
        }
    }

    /// Sends `lines` down one connection and reads one response per line.
    /// Lines carrying an `@d=<ms>` deadline prefix clamp the connect and io
    /// timeouts for the exchange to the tightest budget in the batch: a
    /// query whose caller gives up in 5ms must not hold a 2s socket timeout.
    fn exchange(
        &self,
        lines: &[String],
    ) -> Result<Vec<crate::protocol::ParsedResponse>, ShardError> {
        let budget = lines
            .iter()
            .filter_map(|line| split_request_meta(line).0.deadline_ms)
            .min()
            .map(Duration::from_millis);
        let pooled = self.pool.lock().pop();
        let had_pooled = pooled.is_some();
        let stream = match pooled {
            Some(stream) => {
                // Pooled streams keep the previous exchange's timeouts;
                // re-arm them for this batch's budget.
                let io_timeout = RemoteShard::clamp(self.config.io_timeout, budget);
                let _ = stream.set_read_timeout(Some(io_timeout));
                let _ = stream.set_write_timeout(Some(io_timeout));
                stream
            }
            None => self.connect(budget)?,
        };
        match self.exchange_on(stream, lines) {
            Ok(responses) => Ok(responses),
            // A pooled connection may have been closed server-side (idle
            // timeout, restart): that shows as a write failure or a clean
            // EOF before any response, and only then is a fresh retry safe.
            // A *timeout* means a live shard still chewing on the request —
            // re-sending would double its load exactly when it is slow.
            Err(failure) if had_pooled && failure.stale_connection => {
                self.exchange_on(self.connect(budget)?, lines).map_err(|f| f.error)
            }
            Err(failure) => Err(failure.error),
        }
    }

    fn exchange_on(
        &self,
        mut stream: TcpStream,
        lines: &[String],
    ) -> Result<Vec<crate::protocol::ParsedResponse>, ExchangeFailure> {
        let unavailable = |msg: String| ShardError::Unavailable(msg);
        let mut payload = String::new();
        for line in lines {
            payload.push_str(line);
            payload.push('\n');
        }
        stream.write_all(payload.as_bytes()).map_err(|e| ExchangeFailure {
            error: unavailable(format!("{}: write: {e}", self.addr)),
            // Nothing was delivered: retrying cannot duplicate work.
            stale_connection: true,
        })?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| ExchangeFailure {
            error: unavailable(format!("{}: {e}", self.addr)),
            stale_connection: false,
        })?);
        let mut line_iter = reader.lines();
        let mut responses = Vec::with_capacity(lines.len());
        for _ in lines {
            match read_response(&mut line_iter) {
                Some(Ok(response)) => responses.push(response),
                Some(Err(e)) => {
                    return Err(ExchangeFailure {
                        error: unavailable(format!("{}: read: {e}", self.addr)),
                        // Timeouts and resets mean the shard may be (or have
                        // been) processing the request: never re-send.
                        stale_connection: false,
                    });
                }
                None => {
                    return Err(ExchangeFailure {
                        error: unavailable(format!(
                            "{}: connection closed before responding",
                            self.addr
                        )),
                        // A clean close before the *first* response is the
                        // idle-timeout signature; mid-batch EOF means some
                        // requests were served and must not run twice.
                        stale_connection: responses.is_empty(),
                    });
                }
            }
        }
        self.checkin(stream);
        Ok(responses)
    }

    fn reply_from(
        &self,
        response: crate::protocol::ParsedResponse,
    ) -> Result<ShardReply, ShardError> {
        if !response.ok {
            return Err(ShardError::Rejected(response.status));
        }
        let stages = response.stages();
        let mut hits = Vec::with_capacity(response.body.len());
        for line in &response.body {
            // `#`-prefixed body lines are comments (per-shard timing blocks
            // when the backend is itself a router), not hits.
            if line.starts_with('#') {
                continue;
            }
            match parse_hit_line(line) {
                Some(hit) => hits.push(hit),
                None => {
                    return Err(ShardError::Protocol(format!(
                        "{}: unparseable hit line {line:?}",
                        self.addr
                    )))
                }
            }
        }
        Ok(ShardReply { hits, generation: response.generation().unwrap_or(0), stages })
    }
}

impl ShardBackend for RemoteShard {
    fn id(&self) -> String {
        self.addr.clone()
    }

    fn search(&self, canonical: &str) -> Result<ShardReply, ShardError> {
        self.search_batch(std::slice::from_ref(&canonical.to_owned()))
            .pop()
            .expect("one query in, one reply out")
    }

    fn search_batch(&self, canonicals: &[String]) -> Vec<Result<ShardReply, ShardError>> {
        match self.exchange(canonicals) {
            Ok(responses) => responses.into_iter().map(|r| self.reply_from(r)).collect(),
            Err(e) => canonicals.iter().map(|_| Err(e.clone())).collect(),
        }
    }

    fn search_batch_traced(
        &self,
        canonicals: &[String],
        ids: &[u64],
    ) -> Vec<Result<ShardReply, ShardError>> {
        if ids.iter().all(|&id| id == 0) {
            return self.search_batch(canonicals);
        }
        let lines: Vec<String> =
            canonicals.iter().zip(ids).map(|(c, &id)| prefix_trace_id(id, c)).collect();
        match self.exchange(&lines) {
            Ok(responses) => responses.into_iter().map(|r| self.reply_from(r)).collect(),
            Err(e) => canonicals.iter().map(|_| Err(e.clone())).collect(),
        }
    }

    fn stats_line(&self) -> Result<String, ShardError> {
        let response =
            self.exchange(&["!stats".to_owned()])?.pop().expect("one request in, one response out");
        if response.ok {
            Ok(response.status)
        } else {
            Err(ShardError::Rejected(response.status))
        }
    }

    fn reload(&self) -> Result<String, ShardError> {
        let response = self
            .exchange(&["!reload".to_owned()])?
            .pop()
            .expect("one request in, one response out");
        if response.ok {
            Ok(response.status)
        } else {
            Err(ShardError::Rejected(response.status))
        }
    }
}

impl std::fmt::Debug for RemoteShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteShard")
            .field("addr", &self.addr)
            .field("pooled", &self.pool.lock().len())
            .finish()
    }
}

/// Router construction parameters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Cap on merged hits kept per response.
    pub result_limit: usize,
    /// Router worker threads draining the admission queue.
    pub workers: usize,
    /// Batching and admission control for the router's queue (the same
    /// knobs `dsearch serve` exposes).
    pub batch: BatchConfig,
    /// Total entries in the router's merged-result cache; `0` disables it
    /// (every query scatters).  Only complete (non-partial) answers are
    /// cached — a degraded merge must never outlive the fault that caused
    /// it.
    pub cache_capacity: usize,
    /// Lock shards for the result cache.
    pub cache_shards: usize,
    /// Deadline applied to queries that do not carry their own `@d=<ms>`
    /// prefix; `None` (the default) leaves plain queries unlimited.
    pub default_deadline: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            result_limit: 20,
            workers: 4,
            batch: BatchConfig::default(),
            cache_capacity: 4096,
            cache_shards: 8,
            default_deadline: None,
        }
    }
}

impl RouterConfig {
    /// Checks the configuration for values that would disable routing.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::NoWorkers);
        }
        if self.batch.max_batch == 0 {
            return Err(ConfigError::EmptyBatch);
        }
        if self.cache_capacity > 0 && self.cache_shards == 0 {
            return Err(ConfigError::NoCacheShards);
        }
        Ok(())
    }
}

/// One scatter-gathered answer.
#[derive(Debug, Clone)]
pub struct RoutedResponse {
    /// Canonical (parsed-and-rendered) query text.
    pub query: String,
    /// Merged ranked hits, truncated to the router's result limit.
    pub hits: Vec<RankedHit>,
    /// How many backends were asked.
    pub shards_total: usize,
    /// Backends that failed this query, with why.
    pub shard_failures: Vec<(String, ShardError)>,
    /// `true` when the query's deadline expired mid-scatter: backends that
    /// had not answered by the deadline are missing from the merge and the
    /// response is flagged `deadline=exceeded` on the wire, distinctly from
    /// ordinary shard failures.
    pub deadline_exceeded: bool,
    /// Wall-clock service time (queue wait included for pool-served
    /// queries, exactly like [`QueryResponse`](crate::engine::QueryResponse)).
    pub latency: Duration,
    /// Router-side stage breakdown for the batch that answered.  Shared by
    /// every response of the batch; carries a nonzero id (and per-shard
    /// timing blocks) only when the query was traced — the client sent an
    /// `@<hex id>` prefix or the router's slow-query log is armed.
    pub trace: Arc<QueryTrace>,
}

impl RoutedResponse {
    /// Backends that answered.
    #[must_use]
    pub fn shards_ok(&self) -> usize {
        self.shards_total - self.shard_failures.len()
    }

    /// `true` when at least one backend failed and its hits are missing
    /// from the answer.
    #[must_use]
    pub fn partial(&self) -> bool {
        !self.shard_failures.is_empty()
    }
}

/// One backend's answers for a whole scatter, plus the round trip the
/// fan-out worker observed around the call.
type TimedReplies = (Vec<Result<ShardReply, ShardError>>, Duration);

/// One batch handed to a fan-out worker: the canonical queries plus the
/// channel the per-shard results travel back on, tagged with the backend's
/// position so the gather can line results up.
struct FanoutTask {
    canonicals: Arc<Vec<String>>,
    /// One trace id per canonical (zeroes on the untraced path).
    ids: Arc<Vec<u64>>,
    respond: mpsc::Sender<(usize, TimedReplies)>,
    backend_index: usize,
}

/// A persistent worker thread owning the calls to one backend.  Spawning a
/// thread per scatter would cost tens of microseconds per query; a
/// long-lived worker per backend makes the fan-out a channel send.
struct FanoutWorker {
    /// `None` only while dropping (closing the channel ends the thread).
    tasks: Option<mpsc::Sender<FanoutTask>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FanoutWorker {
    fn spawn(backend: Arc<dyn ShardBackend>) -> Self {
        let (tasks, receiver) = mpsc::channel::<FanoutTask>();
        let handle = std::thread::spawn(move || {
            while let Ok(task) = receiver.recv() {
                let sent = Instant::now();
                let replies = backend.search_batch_traced(&task.canonicals, &task.ids);
                // The router may have given up on this scatter; fine.
                let _ = task.respond.send((task.backend_index, (replies, sent.elapsed())));
            }
        });
        FanoutWorker { tasks: Some(tasks), handle: Some(handle) }
    }

    /// Queues one scatter; `false` when the worker has died (its backend
    /// panicked mid-batch).
    fn send(&self, task: FanoutTask) -> bool {
        self.tasks.as_ref().is_some_and(|tasks| tasks.send(task).is_ok())
    }
}

impl Drop for FanoutWorker {
    fn drop(&mut self) {
        // Close the channel first so the thread observes the end of the
        // stream, then join it.
        self.tasks.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The scatter-gather coordinator: fans queries out to every
/// [`ShardBackend`], merges the rankings, and tolerates missing shards.
pub struct Router {
    backends: Vec<Arc<dyn ShardBackend>>,
    /// One persistent fan-out worker per backend (same order).
    fanout: Vec<FanoutWorker>,
    /// One `dsearch_shard_rtt_ns{shard=…}` histogram per backend (same
    /// order), interned once so the scatter hot path never touches the
    /// registry lock.
    rtt_hists: Vec<Arc<Histogram>>,
    /// Merged complete answers keyed by canonical query and the router's
    /// reload epoch; `None` when disabled.  Partial answers are never
    /// inserted, so a recovered shard is always re-asked.
    cache: Option<QueryCache<Arc<Vec<RankedHit>>>>,
    /// Bumped by `!reload` so cached merges from before the reload stop
    /// being served and age out.
    epoch: AtomicU64,
    config: RouterConfig,
    stats: ServerStats,
}

impl Router {
    /// Builds a router over `backends`.
    ///
    /// # Errors
    ///
    /// Fails when `backends` is empty or the configuration is invalid.
    pub fn new(
        backends: Vec<Box<dyn ShardBackend>>,
        config: RouterConfig,
    ) -> Result<Arc<Self>, ConfigError> {
        config.validate()?;
        if backends.is_empty() {
            return Err(ConfigError::NoShards);
        }
        let backends: Vec<Arc<dyn ShardBackend>> = backends.into_iter().map(Arc::from).collect();
        let fanout = backends.iter().map(|b| FanoutWorker::spawn(Arc::clone(b))).collect();
        let stats = ServerStats::new();
        for backend in &backends {
            backend.bind_metrics(stats.registry());
        }
        let rtt_hists = backends.iter().map(|b| stats.shard_rtt_histogram(&b.id())).collect();
        let cache = (config.cache_capacity > 0)
            .then(|| QueryCache::new(config.cache_capacity, config.cache_shards));
        Ok(Arc::new(Router {
            backends,
            fanout,
            rtt_hists,
            cache,
            epoch: AtomicU64::new(1),
            config,
            stats,
        }))
    }

    /// The current reload epoch (part of every cache key).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Invalidates the result cache by moving to a fresh epoch (after a
    /// reload changed what the shards would answer).
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Result-cache counters (zeros when the cache is disabled).
    #[must_use]
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache.as_ref().map(QueryCache::counters).unwrap_or_default()
    }

    /// The configured backends.
    #[must_use]
    pub fn backends(&self) -> &[Arc<dyn ShardBackend>] {
        &self.backends
    }

    /// The router's configuration.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// The router's own serving counters (`shard_errors=`, `partial=`,
    /// latency percentiles, …).
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Routes one query (a batch of one).
    ///
    /// # Errors
    ///
    /// Fails when the query does not parse or every shard failed.
    pub fn route(&self, raw: &str) -> Result<RoutedResponse, ServerError> {
        self.route_batch(&[raw]).pop().expect("one query in, one response out")
    }

    /// Routes a batch of queries: one scatter per backend for the whole
    /// batch (remote backends pipeline it over one connection), identical
    /// canonical queries deduplicated exactly like the single-store engine.
    #[must_use]
    pub fn route_batch(&self, raws: &[&str]) -> Vec<Result<RoutedResponse, ServerError>> {
        self.route_batch_since(raws, Instant::now())
    }

    pub(crate) fn route_batch_since(
        &self,
        raws: &[&str],
        started: Instant,
    ) -> Vec<Result<RoutedResponse, ServerError>> {
        self.route_batch_timed(raws, started, Duration::ZERO)
    }

    /// The full routing path with queue timing attached — same stage
    /// accounting as [`QueryEngine::execute_batch_timed`]: everything
    /// between `started` and execution that is not the fill window lands in
    /// `queue_wait`, so the stages tile the measured latency without holes.
    pub(crate) fn route_batch_timed(
        &self,
        raws: &[&str],
        started: Instant,
        fill_wait: Duration,
    ) -> Vec<Result<RoutedResponse, ServerError>> {
        let exec_started = Instant::now();
        let queue_wait = exec_started.saturating_duration_since(started).saturating_sub(fill_wait);
        let mut trace = QueryTrace::default();
        if !queue_wait.is_zero() {
            trace.record(Stage::QueueWait, queue_wait);
        }
        if !fill_wait.is_zero() {
            trace.record(Stage::BatchFill, fill_wait);
        }
        let mut slots: Vec<Option<Result<RoutedResponse, ServerError>>> =
            raws.iter().map(|_| None).collect();
        let mut client_ids: Vec<u64> = Vec::with_capacity(raws.len());
        // RoutedResponse needs a trace at construction time, but the batch
        // trace is only complete after the merge; slots start on this
        // placeholder and are re-pointed at the finished trace below.
        let placeholder: Arc<QueryTrace> = Arc::new(QueryTrace::default());

        // Parse once at the router: shards only ever see canonical queries,
        // and identical spellings collapse to one scatter.  Deadlines are
        // anchored at the batch's earliest submission — conservative for
        // later arrivals, and it keeps the whole batch on one clock.
        let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut deadlines: Vec<Option<Instant>> = Vec::with_capacity(raws.len());
        let mut executed = 0u64;
        for (i, raw) in raws.iter().enumerate() {
            let (meta, query_text) = split_request_meta(raw);
            client_ids.push(meta.trace_id);
            deadlines.push(
                meta.deadline_ms
                    .map(Duration::from_millis)
                    .or(self.config.default_deadline)
                    .map(|budget| started + budget),
            );
            match Query::parse(query_text) {
                Ok(query) => {
                    groups.entry(query.to_string()).or_default().push(i);
                    executed += 1;
                }
                Err(e) => {
                    self.stats.record_error();
                    slots[i] = Some(Err(ServerError::Parse(e)));
                }
            }
        }
        let parse_done = Instant::now();
        trace.record(Stage::Parse, parse_done.saturating_duration_since(exec_started));
        // Answer already-expired positions before the cache probe: an
        // expired query must observe its deadline even when the answer would
        // have been free, and must never influence what gets cached.
        groups.retain(|_, positions| {
            positions.retain(|&i| {
                let expired = deadlines[i].is_some_and(|deadline| deadline <= parse_done);
                if expired {
                    self.stats.record_deadline_exceeded(DeadlineStage::Scatter);
                    slots[i] = Some(Err(ServerError::DeadlineExceeded));
                }
                !expired
            });
            !positions.is_empty()
        });
        // Serve whole groups from the result cache before scattering: a
        // cached group costs no shard traffic at all.  Only complete merges
        // ever enter the cache, so a hit is never a stale partial answer.
        let epoch = self.epoch();
        if let Some(cache) = &self.cache {
            let mut cached: Vec<(String, Arc<Vec<RankedHit>>)> = Vec::new();
            for canonical in groups.keys() {
                let key = CacheKey { query: canonical.clone(), generation: epoch };
                if let Some(hits) = cache.get(&key) {
                    cached.push((canonical.clone(), hits));
                }
            }
            for (canonical, hits) in cached {
                let positions = groups.remove(&canonical).expect("key came from groups");
                self.stats.record_dedup_hits((positions.len() - 1) as u64);
                let result = Ok(RoutedResponse {
                    query: canonical,
                    hits: (*hits).clone(),
                    shards_total: self.backends.len(),
                    shard_failures: Vec::new(),
                    deadline_exceeded: false,
                    latency: Duration::ZERO,
                    trace: Arc::clone(&placeholder),
                });
                for &i in &positions {
                    slots[i] = Some(result.clone());
                }
            }
        }
        let canonicals: Vec<String> = groups.keys().cloned().collect();
        if !canonicals.is_empty() {
            // Trace ids travel to the shards only when someone will read
            // them — the client sent an `@<hex id>` prefix or the router's
            // slow-query log is armed — so the untraced hot path never pays
            // for id generation or per-shard span collection.
            let traced =
                client_ids.iter().any(|&id| id != 0) || self.stats.slow_log().threshold().is_some();
            let shard_ids: Vec<u64> = if traced {
                canonicals.iter().map(|_| next_trace_id()).collect()
            } else {
                vec![0; canonicals.len()]
            };
            // The deadline a group travels under is its most patient live
            // position's (an unlimited position lifts the whole group); the
            // gather waits until the most patient group's deadline.
            let group_deadlines: Vec<Option<Instant>> =
                groups.values().map(|positions| group_deadline(&deadlines, positions)).collect();
            let batch_deadline = group_deadlines
                .iter()
                .try_fold(None::<Instant>, |latest, gd| {
                    gd.map(|d| Some(latest.map_or(d, |l| l.max(d))))
                })
                .flatten();
            // Forward each group's *remaining* budget to the shards as the
            // same `@d=<ms>` wire prefix the client used, so a shard sheds
            // or cancels work the router would discard anyway.
            let forward_from = Instant::now();
            let wire_lines: Vec<String> = canonicals
                .iter()
                .zip(&group_deadlines)
                .map(|(canonical, gd)| match gd {
                    Some(deadline) => {
                        let remaining = deadline.saturating_duration_since(forward_from);
                        #[allow(clippy::cast_possible_truncation)]
                        let ms = remaining.as_millis().max(1) as u64;
                        prefix_deadline_ms(ms, canonical)
                    }
                    None => canonical.clone(),
                })
                .collect();
            let (mut per_backend, scatter_expired) =
                self.scatter(&wire_lines, &shard_ids, batch_deadline);
            let scatter_done = Instant::now();
            trace.record(Stage::Scatter, scatter_done.saturating_duration_since(parse_done));
            if traced {
                // One timing block per backend.  Shard-side stage spans are
                // batch-shared, so the first reply represents the batch.
                for (backend, (replies, rtt)) in self.backends.iter().zip(&per_backend) {
                    let stages = match replies.first() {
                        Some(Ok(reply)) => reply.stages.clone(),
                        _ => Vec::new(),
                    };
                    trace.push_shard(ShardSpan { shard: backend.id(), rtt: *rtt, stages });
                }
            }
            // Walk the groups back-to-front so each backend's reply for the
            // current query can be popped (moved, not cloned) off its vec.
            for ((canonical, positions), group_deadline) in
                groups.iter().rev().zip(group_deadlines.iter().rev())
            {
                let mut parts: Vec<Vec<RankedHit>> = Vec::with_capacity(self.backends.len());
                let mut failures: Vec<(String, ShardError)> = Vec::new();
                for (backend, (replies, _)) in self.backends.iter().zip(&mut per_backend) {
                    match replies.pop().expect("one reply per canonical per backend") {
                        Ok(reply) => parts.push(reply.hits),
                        Err(e) => failures.push((backend.id(), e)),
                    }
                }
                self.stats.record_shard_errors(failures.len() as u64);
                self.stats.record_dedup_hits((positions.len() - 1) as u64);
                let deadline_expired = scatter_expired && group_deadline.is_some();
                let result = if failures.len() == self.backends.len() {
                    if deadline_expired {
                        // No shard made the budget: the deadline, not the
                        // shards, is what failed the query.
                        self.stats.record_deadline_exceeded(DeadlineStage::Scatter);
                        Err(ServerError::DeadlineExceeded)
                    } else {
                        self.stats.record_error();
                        Err(ServerError::AllShardsFailed)
                    }
                } else {
                    let deadline_exceeded = deadline_expired && !failures.is_empty();
                    if deadline_exceeded {
                        self.stats.record_deadline_exceeded(DeadlineStage::Scatter);
                    }
                    let hits = merge_ranked(parts, self.config.result_limit);
                    // Cache complete answers only: a partial merge cached
                    // here would keep serving the degraded answer after the
                    // failed shard recovered — and a deadline-truncated
                    // merge must never outlive the budget that shaped it.
                    if failures.is_empty() {
                        if let Some(cache) = &self.cache {
                            cache.insert(
                                CacheKey { query: canonical.clone(), generation: epoch },
                                Arc::new(hits.clone()),
                            );
                        }
                    }
                    Ok(RoutedResponse {
                        query: canonical.clone(),
                        hits,
                        shards_total: self.backends.len(),
                        shard_failures: failures,
                        deadline_exceeded,
                        latency: Duration::ZERO,
                        trace: Arc::clone(&placeholder),
                    })
                };
                for &i in positions {
                    slots[i] = Some(result.clone());
                }
            }
            trace.record(Stage::Merge, scatter_done.elapsed());
        }
        self.stats.record_batch(executed);
        self.stats.record_trace(&trace);
        let latency = started.elapsed();
        let shared_trace = Arc::new(trace);
        slots
            .into_iter()
            .zip(client_ids)
            .map(|(slot, client_id)| {
                let mut result = slot.expect("every position answered");
                if let Ok(response) = &mut result {
                    response.latency = latency;
                    // Traced responses get their own copy branded with the
                    // client's id; untraced ones share the batch trace.
                    response.trace = if client_id == 0 {
                        Arc::clone(&shared_trace)
                    } else {
                        let mut own = (*shared_trace).clone();
                        own.set_id(client_id);
                        Arc::new(own)
                    };
                    self.stats.record_query(latency);
                    if response.partial() {
                        self.stats.record_partial_response();
                    }
                }
                result
            })
            .collect()
    }

    /// One `search_batch_traced` per backend, concurrently: the scatter.
    /// Each backend's persistent fan-out worker receives the batch over a
    /// channel and reports its round trip; a worker that died (its backend
    /// panicked) counts as unavailable for the whole batch.  Every observed
    /// round trip feeds the backend's `dsearch_shard_rtt_ns` histogram.
    ///
    /// With a `deadline`, the gather never waits past it: backends that
    /// have not answered by then count as unavailable and the second return
    /// value is `true` — the scatter degraded instead of hanging.  The
    /// abandoned worker finishes (and discards) its reply in the
    /// background, so a stalled shard delays its own next scatter, never
    /// this one.
    fn scatter(
        &self,
        lines: &[String],
        ids: &[u64],
        deadline: Option<Instant>,
    ) -> (Vec<TimedReplies>, bool) {
        if self.backends.len() == 1 && deadline.is_none() {
            let sent = Instant::now();
            let replies = self.backends[0].search_batch_traced(lines, ids);
            let rtt = sent.elapsed();
            self.rtt_hists[0].record(rtt);
            return (vec![(replies, rtt)], false);
        }
        let lines = Arc::new(lines.to_vec());
        let ids = Arc::new(ids.to_vec());
        let (respond, gathered) = mpsc::channel();
        let mut pending = 0usize;
        let mut replies: Vec<Option<TimedReplies>> = self.backends.iter().map(|_| None).collect();
        for (backend_index, worker) in self.fanout.iter().enumerate() {
            let task = FanoutTask {
                canonicals: Arc::clone(&lines),
                ids: Arc::clone(&ids),
                respond: respond.clone(),
                backend_index,
            };
            if worker.send(task) {
                pending += 1;
            }
        }
        drop(respond);
        let mut expired = false;
        for _ in 0..pending {
            let received = match deadline {
                None => gathered.recv().ok(),
                Some(deadline) => {
                    let budget = deadline.saturating_duration_since(Instant::now());
                    if budget.is_zero() {
                        expired = true;
                        break;
                    }
                    match gathered.recv_timeout(budget) {
                        Ok(received) => Some(received),
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            expired = true;
                            break;
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => None,
                    }
                }
            };
            let Some((backend_index, (reply, rtt))) = received else { break };
            self.rtt_hists[backend_index].record(rtt);
            replies[backend_index] = Some((reply, rtt));
        }
        let missing =
            if expired { "deadline exceeded waiting for shard" } else { "shard worker died" };
        let replies = replies
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    let failed = lines
                        .iter()
                        .map(|_| Err(ShardError::Unavailable(missing.to_owned())))
                        .collect();
                    (failed, Duration::ZERO)
                })
            })
            .collect();
        (replies, expired)
    }
}

/// The deadline a deduplicated query group travels under: its most patient
/// live position's.  Any position without a deadline lifts the whole
/// group's — cancelling the scatter would fail a query that was promised
/// unlimited time.
fn group_deadline(deadlines: &[Option<Instant>], positions: &[usize]) -> Option<Instant> {
    let mut latest: Option<Instant> = None;
    for &i in positions {
        let deadline = deadlines[i]?;
        latest = Some(latest.map_or(deadline, |l| l.max(deadline)));
    }
    latest
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("backends", &self.backends.len())
            .field("config", &self.config)
            .finish()
    }
}

/// A queued routed query plus its answer channel.
pub(crate) struct RouteJob {
    raw: String,
    respond: mpsc::Sender<Result<RoutedResponse, ServerError>>,
    submitted: Instant,
    /// Absolute deadline parsed at submission, so the governor can shed the
    /// job without re-parsing the request line.
    deadline: Option<Instant>,
}

impl QueueJob for RouteJob {
    fn shed(self) {
        // The waiter may have given up; that is not an error.
        let _ = self.respond.send(Err(ServerError::Overloaded));
    }

    fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    fn expire(self) {
        let _ = self.respond.send(Err(ServerError::DeadlineExceeded));
    }
}

/// A submitted routed query waiting for its worker.
pub struct PendingRoutedResponse {
    receiver: mpsc::Receiver<Result<RoutedResponse, ServerError>>,
}

impl PendingRoutedResponse {
    /// Blocks until the worker answers.
    ///
    /// # Errors
    ///
    /// Propagates the worker's error; reports `ShuttingDown` when the pool
    /// died before answering.
    pub fn wait(self) -> Result<RoutedResponse, ServerError> {
        self.receiver.recv().unwrap_or(Err(ServerError::ShuttingDown))
    }
}

/// A fixed pool of router workers draining query batches from the same
/// admission-controlled [`QueueGovernor`] the single-store engine uses:
/// queries arriving on many connections coalesce into batches, and each
/// batch costs one scatter per backend instead of one per query.
pub struct RouterPool {
    router: Arc<Router>,
    governor: Arc<QueueGovernor<RouteJob>>,
    handles: Vec<std::thread::JoinHandle<u64>>,
}

impl RouterPool {
    /// Spawns `router.config().workers` workers behind a governor
    /// configured from `router.config().batch`.
    #[must_use]
    pub fn start(router: Arc<Router>) -> Self {
        let workers = router.config().workers;
        let governor = Arc::new(QueueGovernor::<RouteJob>::new(router.config().batch));
        let handles = (0..workers)
            .map(|_| {
                let governor = Arc::clone(&governor);
                let router = Arc::clone(&router);
                std::thread::spawn(move || {
                    let mut served = 0u64;
                    while let Some(batch) = governor.next_batch(router.stats()) {
                        let started = batch
                            .jobs
                            .iter()
                            .map(|job| job.submitted)
                            .min()
                            .expect("batches are never empty");
                        let raws: Vec<&str> =
                            batch.jobs.iter().map(|job| job.raw.as_str()).collect();
                        let responses = router.route_batch_timed(&raws, started, batch.fill_wait);
                        for (job, response) in batch.jobs.iter().zip(responses) {
                            // A client that gave up is not an error.
                            let _ = job.respond.send(response);
                            served += 1;
                        }
                    }
                    served
                })
            })
            .collect();
        RouterPool { router, governor, handles }
    }

    /// Jobs currently waiting in the admission queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.governor.depth()
    }

    /// Enqueues a query; the result is collected through the returned
    /// handle.
    ///
    /// # Errors
    ///
    /// Fails with [`ServerError::Overloaded`] when admission control rejects
    /// the request, and [`ServerError::ShuttingDown`] when the pool is
    /// stopping.
    pub fn submit(&self, raw: impl Into<String>) -> Result<PendingRoutedResponse, ServerError> {
        let (respond, receiver) = mpsc::channel();
        let raw = raw.into();
        let submitted = Instant::now();
        let (meta, _) = split_request_meta(&raw);
        let deadline = meta
            .deadline_ms
            .map(Duration::from_millis)
            .or(self.router.config().default_deadline)
            .map(|budget| submitted + budget);
        let job = RouteJob { raw, respond, submitted, deadline };
        self.governor.submit(job, self.router.stats())?;
        Ok(PendingRoutedResponse { receiver })
    }

    /// Submits and waits: the closed-loop client path.
    ///
    /// # Errors
    ///
    /// Propagates submit and routing errors.
    pub fn execute(&self, raw: &str) -> Result<RoutedResponse, ServerError> {
        self.submit(raw)?.wait()
    }

    /// Drains the queue and joins every worker, returning the total number
    /// of jobs served.
    pub fn shutdown(mut self) -> u64 {
        self.governor.close();
        self.handles.drain(..).map(|h| h.join().unwrap_or(0)).sum()
    }
}

impl Drop for RouterPool {
    fn drop(&mut self) {
        self.governor.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The stats-line fields summed across shards into the router's `!stats`
/// report.
const AGGREGATED_FIELDS: &[&str] = &["queries", "errors", "shed", "batched", "dedup_hits"];

/// The routed counterpart of [`Service`](crate::serve::Service): answers the
/// line protocol by scatter-gathering over the router's backends, so
/// `dsearch route` plugs into the same stdin/TCP front ends as
/// `dsearch serve`.
pub struct RouteService {
    router: Arc<Router>,
    pool: RouterPool,
    requests: AtomicU64,
}

impl RouteService {
    /// Starts the router pool for `router`.
    #[must_use]
    pub fn start(router: Arc<Router>) -> Self {
        let pool = RouterPool::start(Arc::clone(&router));
        RouteService { router, pool, requests: AtomicU64::new(0) }
    }

    /// The router this service fronts.
    #[must_use]
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// The router pool this service executes queries on.
    #[must_use]
    pub fn pool(&self) -> &RouterPool {
        &self.pool
    }

    /// Total request lines handled (all connections).
    #[must_use]
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// One control-plane call per backend, concurrently: a down shard costs
    /// the report one connect timeout, not one per shard in sequence.
    /// `on_panic` supplies the result for a backend that panicked mid-call.
    fn fanout_control<R: Send>(
        &self,
        call: impl Fn(&dyn ShardBackend) -> R + Sync,
        on_panic: impl Fn() -> R,
    ) -> Vec<(String, R)> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .router
                .backends()
                .iter()
                .map(|backend| {
                    let call = &call;
                    scope.spawn(move || (backend.id(), call(&**backend)))
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap_or_else(|_| ("unknown".to_owned(), on_panic())))
                .collect()
        })
    }

    /// The rendered `!stats` answer: the router's own counters on the
    /// status line (including `shard_errors=` and `partial=`), per-shard
    /// stats aggregated into `shards_*=` sums, and one body line per shard
    /// (`shard <id> <stats>` or `shard <id> DOWN <why>`).
    #[must_use]
    pub fn stats_report(&self) -> String {
        let stats = self.router.stats();
        let mut sums: BTreeMap<&str, u64> = AGGREGATED_FIELDS.iter().map(|f| (*f, 0)).collect();
        let mut down = 0usize;
        let mut body = Vec::with_capacity(self.router.backends().len());
        let reports = self.fanout_control(
            |backend| (backend.stats_line(), backend.replica_status()),
            || (Err(ShardError::Unavailable("shard backend panicked".to_owned())), Vec::new()),
        );
        for (id, (result, replicas)) in reports {
            match result {
                Ok(line) => {
                    for token in line.split_whitespace() {
                        let Some((name, value)) = token.split_once('=') else { continue };
                        if let (Some(sum), Ok(value)) = (sums.get_mut(name), value.parse::<u64>()) {
                            *sum += value;
                        }
                    }
                    body.push(format!("shard {id} {line}"));
                }
                Err(e) => {
                    down += 1;
                    body.push(format!("shard {id} DOWN {e}"));
                }
            }
            for line in replicas {
                body.push(format!("shard {id} {line}"));
            }
        }
        let aggregated: Vec<String> = AGGREGATED_FIELDS
            .iter()
            .map(|field| format!("shards_{field}={}", sums[*field]))
            .collect();
        let cache = self.router.cache_counters();
        let status = format!(
            "router queries={} errors={} shed={} expired={} deadline_exceeded={} \
             retry_exhausted={} dedup_hits={} shard_errors={} partial={} \
             cache_hits={} cache_misses={} qps={:.1} shards={} shards_down={down} {} latency[{}]",
            stats.query_count(),
            stats.error_count(),
            stats.shed_count(),
            stats.expired_count(),
            stats.deadline_exceeded_count(),
            stats.retry_budget_exhausted_count(),
            stats.dedup_hit_count(),
            stats.shard_error_count(),
            stats.partial_response_count(),
            cache.hits,
            cache.misses,
            stats.qps(),
            self.router.backends().len(),
            aggregated.join(" "),
            stats.latency_summary(),
        );
        render_info_with_body(&status, body)
    }

    /// The rendered `!reload` answer: one `# shard <id> reload ok|err=` body
    /// line per underlying backend (replica-set members individually), and a
    /// summary counting both sides — a member whose reload was refused is
    /// never folded into an aggregate success.
    fn reload_report(&self) -> String {
        let mut body = Vec::with_capacity(self.router.backends().len());
        let mut ok = 0usize;
        let mut failed = 0usize;
        let outcomes = self.fanout_control(
            |backend| backend.reload_detailed(),
            || {
                vec![(
                    "unknown".to_owned(),
                    Err(ShardError::Unavailable("shard backend panicked".to_owned())),
                )]
            },
        );
        for (_, members) in outcomes {
            for (id, result) in members {
                match result {
                    Ok(line) => {
                        ok += 1;
                        body.push(format!("# shard {id} reload ok: {line}"));
                    }
                    Err(e) => {
                        failed += 1;
                        body.push(format!("# shard {id} reload err={e}"));
                    }
                }
            }
        }
        if ok == 0 {
            return render_error_text("reload failed on every shard");
        }
        // What the shards would answer may have changed: retire cached
        // merges from before the reload.
        self.router.bump_epoch();
        render_info_with_body(
            &format!("reloaded shards={ok}/{} failed={failed}", ok + failed),
            body,
        )
    }

    /// Shuts the pool down, returning how many queries the workers served.
    pub fn shutdown(self) -> u64 {
        self.pool.shutdown()
    }
}

impl LineHandler for RouteService {
    fn handle(&self, line: &str) -> Handled {
        match parse_request(line) {
            Request::Empty => Handled::Ignore,
            Request::Quit => Handled::Close,
            Request::Stats => {
                self.requests.fetch_add(1, Ordering::Relaxed);
                Handled::Respond(self.stats_report())
            }
            Request::Reload => {
                self.requests.fetch_add(1, Ordering::Relaxed);
                Handled::Respond(self.reload_report())
            }
            Request::Metrics => {
                self.requests.fetch_add(1, Ordering::Relaxed);
                Handled::Respond(metrics_report(&self.router.stats().render_metrics()))
            }
            Request::Trace(arg) => {
                self.requests.fetch_add(1, Ordering::Relaxed);
                Handled::Respond(trace_control(self.router.stats(), &arg))
            }
            Request::Slow => {
                self.requests.fetch_add(1, Ordering::Relaxed);
                Handled::Respond(slow_report(self.router.stats()))
            }
            Request::Query(raw) => {
                self.requests.fetch_add(1, Ordering::Relaxed);
                match self.pool.execute(&raw) {
                    Ok(response) => {
                        let text = render_routed_response(&response);
                        observe_slow(
                            self.router.stats(),
                            &response.query,
                            response.latency,
                            &response.trace,
                        );
                        Handled::Respond(text)
                    }
                    Err(e) => Handled::Respond(render_error(&e)),
                }
            }
        }
    }

    fn stats(&self) -> &ServerStats {
        self.router.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::snapshot::IndexSnapshot;
    use dsearch_index::{DocTable, InMemoryIndex};
    use dsearch_text::Term;

    fn engine_over(files: &[(&str, &[&str])]) -> Arc<QueryEngine> {
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for (path, words) in files {
            let id = docs.insert(*path);
            index.insert_file(id, words.iter().map(|w| Term::from(*w)));
        }
        QueryEngine::new(
            IndexSnapshot::from_index(index, docs, 1),
            EngineConfig { workers: 1, ..EngineConfig::default() },
        )
        .unwrap()
    }

    fn local(files: &[(&str, &[&str])], id: &str) -> Box<dyn ShardBackend> {
        Box::new(LocalShards::new(engine_over(files)).with_id(id))
    }

    /// A backend that sleeps before answering, for deadline tests.
    struct SlowShard {
        delay: Duration,
    }

    impl ShardBackend for SlowShard {
        fn id(&self) -> String {
            "slow".to_owned()
        }

        fn search(&self, _canonical: &str) -> Result<ShardReply, ShardError> {
            std::thread::sleep(self.delay);
            Ok(ShardReply {
                hits: vec![RankedHit::new("slow.txt", 1, 0.0)],
                generation: 1,
                stages: Vec::new(),
            })
        }

        fn stats_line(&self) -> Result<String, ShardError> {
            Ok("queries=0".to_owned())
        }

        fn reload(&self) -> Result<String, ShardError> {
            Ok("ok".to_owned())
        }
    }

    /// A backend that always fails, for degradation tests.
    struct DeadShard;

    impl ShardBackend for DeadShard {
        fn id(&self) -> String {
            "dead".to_owned()
        }

        fn search(&self, _canonical: &str) -> Result<ShardReply, ShardError> {
            Err(ShardError::Unavailable("always down".to_owned()))
        }

        fn stats_line(&self) -> Result<String, ShardError> {
            Err(ShardError::Unavailable("always down".to_owned()))
        }

        fn reload(&self) -> Result<String, ShardError> {
            Err(ShardError::Unavailable("always down".to_owned()))
        }
    }

    fn two_shard_router() -> Arc<Router> {
        Router::new(
            vec![
                local(&[("a.txt", &["rust", "index"]), ("b.txt", &["rust"])], "shard-0"),
                local(&[("c.txt", &["rust", "search"]), ("d.txt", &["java"])], "shard-1"),
            ],
            RouterConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn router_requires_backends_and_valid_config() {
        assert_eq!(
            Router::new(vec![], RouterConfig::default()).unwrap_err(),
            ConfigError::NoShards
        );
        let config = RouterConfig { workers: 0, ..RouterConfig::default() };
        assert_eq!(
            Router::new(vec![Box::new(DeadShard)], config).unwrap_err(),
            ConfigError::NoWorkers
        );
        let config = RouterConfig {
            batch: BatchConfig { max_batch: 0, ..BatchConfig::default() },
            ..RouterConfig::default()
        };
        assert_eq!(
            Router::new(vec![Box::new(DeadShard)], config).unwrap_err(),
            ConfigError::EmptyBatch
        );
    }

    #[test]
    fn router_merges_hits_across_shards() {
        let router = two_shard_router();
        let response = router.route("rust").unwrap();
        assert_eq!(response.query, "rust");
        assert_eq!(response.shards_total, 2);
        assert!(!response.partial());
        let paths: Vec<&str> = response.hits.iter().map(|h| &*h.path).collect();
        // BM25 order, not path order: "rust" is rare in shard-1 (1 of 2
        // docs) so c.txt outranks shard-0's hits, and b.txt is the shorter
        // of shard-0's two matching docs.
        assert_eq!(paths, vec!["c.txt", "b.txt", "a.txt"]);
        assert!(
            response.hits.windows(2).all(|w| w[0].score >= w[1].score),
            "merged hits must be score-descending: {:?}",
            response.hits
        );
        assert!(response.hits.iter().all(|h| h.score > 0.0), "local shards score their hits");
        assert_eq!(router.stats().query_count(), 1);
        assert_eq!(router.stats().shard_error_count(), 0);
    }

    #[test]
    fn router_canonicalizes_and_dedups_spellings() {
        let router = two_shard_router();
        let responses = router.route_batch(&["RUST  index", "rust AND index", "rust search"]);
        let first = responses[0].as_ref().unwrap();
        assert_eq!(first.query, "rust AND index");
        assert_eq!(first.hits.len(), 1);
        assert_eq!(&*first.hits[0].path, "a.txt");
        assert_eq!(first.hits[0].matched_terms, 2);
        let second = responses[1].as_ref().unwrap();
        assert_eq!(second.hits, first.hits);
        let third = responses[2].as_ref().unwrap();
        assert_eq!(&*third.hits[0].path, "c.txt");
        assert_eq!(router.stats().dedup_hit_count(), 1);
    }

    #[test]
    fn router_reports_parse_errors_without_touching_shards() {
        let engine = engine_over(&[("a.txt", &["rust"])]);
        let router = Router::new(
            vec![Box::new(LocalShards::new(Arc::clone(&engine)))],
            RouterConfig::default(),
        )
        .unwrap();
        let err = router.route("AND").unwrap_err();
        assert!(matches!(err, ServerError::Parse(_)));
        assert_eq!(router.stats().error_count(), 1);
        // The malformed query never reached the shard.
        assert_eq!(engine.stats().query_count(), 0);
        assert_eq!(engine.stats().error_count(), 0);
    }

    #[test]
    fn router_degrades_to_partial_results_when_a_shard_is_down() {
        let router = Router::new(
            vec![local(&[("a.txt", &["rust"])], "alive"), Box::new(DeadShard)],
            RouterConfig::default(),
        )
        .unwrap();
        let response = router.route("rust").unwrap();
        assert!(response.partial());
        assert_eq!(response.shards_ok(), 1);
        assert_eq!(response.shard_failures.len(), 1);
        assert_eq!(response.shard_failures[0].0, "dead");
        assert_eq!(response.hits.len(), 1);
        assert_eq!(router.stats().shard_error_count(), 1);
        assert_eq!(router.stats().partial_response_count(), 1);
    }

    #[test]
    fn router_fails_the_query_only_when_every_shard_is_down() {
        let router =
            Router::new(vec![Box::new(DeadShard), Box::new(DeadShard)], RouterConfig::default())
                .unwrap();
        let err = router.route("rust").unwrap_err();
        assert_eq!(err, ServerError::AllShardsFailed);
        assert!(err.to_string().contains("all shards"));
        assert_eq!(router.stats().shard_error_count(), 2);
        assert_eq!(router.stats().error_count(), 1);
        assert_eq!(router.stats().query_count(), 0);
    }

    #[test]
    fn router_result_limit_truncates_merged_hits() {
        let router = Router::new(
            vec![
                local(&[("a.txt", &["rust"]), ("b.txt", &["rust"])], "shard-0"),
                local(&[("c.txt", &["rust"]), ("d.txt", &["rust"])], "shard-1"),
            ],
            RouterConfig { result_limit: 3, ..RouterConfig::default() },
        )
        .unwrap();
        let response = router.route("rust").unwrap();
        assert_eq!(response.hits.len(), 3);
    }

    #[test]
    fn route_service_speaks_the_line_protocol() {
        use std::io::Cursor;

        let service = RouteService::start(two_shard_router());
        let input = "rust\n\n!stats\nAND\n!quit\n";
        let mut output = Vec::new();
        let end = service.serve_lines(Cursor::new(input), &mut output).unwrap();
        assert_eq!(end, crate::serve::SessionEnd::Quit);
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("OK 3 shards=2/2 partial=false"), "{text}");
        assert!(text.contains("a.txt (1 terms)"), "{text}");
        assert!(text.contains("shard_errors=0"), "{text}");
        assert!(text.contains("shard shard-0 queries="), "{text}");
        // One routed query fanned out to both shards: the aggregate sums 2.
        assert!(text.contains("shards_queries=2"), "{text}");
        assert!(text.contains("ERR invalid query"), "{text}");
        assert_eq!(service.request_count(), 3);
        assert_eq!(service.shutdown(), 2);
    }

    #[test]
    fn route_service_stats_marks_down_shards() {
        let router = Router::new(
            vec![local(&[("a.txt", &["rust"])], "alive"), Box::new(DeadShard)],
            RouterConfig::default(),
        )
        .unwrap();
        let service = RouteService::start(router);
        let Handled::Respond(response) = service.handle("!stats") else {
            panic!("stats should respond");
        };
        assert!(response.contains("shards=2 shards_down=1"), "{response}");
        assert!(response.contains("shard dead DOWN"), "{response}");
        service.shutdown();
    }

    #[test]
    fn route_service_reload_forwards_to_backends() {
        let service = RouteService::start(two_shard_router());
        let Handled::Respond(response) = service.handle("!reload") else {
            panic!("reload should respond");
        };
        // LocalShards without a store path refuse the reload.
        assert!(response.starts_with("ERR reload failed on every shard"), "{response}");
        service.shutdown();
    }

    #[test]
    fn expired_scatter_degrades_to_partial_with_deadline_flag() {
        let router = Router::new(
            vec![
                local(&[("a.txt", &["rust"])], "fast"),
                Box::new(SlowShard { delay: Duration::from_millis(500) }),
            ],
            RouterConfig::default(),
        )
        .unwrap();
        let started = Instant::now();
        let response = router.route("@d=25 rust").unwrap();
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_millis(250), "took {elapsed:?}, should stop at ~25ms");
        assert!(response.partial());
        assert!(response.deadline_exceeded);
        assert_eq!(response.shards_ok(), 1);
        assert_eq!(response.hits.len(), 1, "the fast shard's hits survive");
        assert_eq!(router.stats().deadline_exceeded_count(), 1);
        assert_eq!(
            router.stats().deadline_exceeded_stage_count(crate::stats::DeadlineStage::Scatter),
            1
        );
        // The degraded merge must not have been cached.
        assert_eq!(router.cache_counters().insertions, 0);
    }

    #[test]
    fn all_shards_past_deadline_reports_deadline_not_shard_failure() {
        let router = Router::new(
            vec![
                Box::new(SlowShard { delay: Duration::from_millis(400) }),
                Box::new(SlowShard { delay: Duration::from_millis(400) }),
            ],
            RouterConfig::default(),
        )
        .unwrap();
        let started = Instant::now();
        let err = router.route("@d=20 rust").unwrap_err();
        assert!(started.elapsed() < Duration::from_millis(250));
        assert!(matches!(err, ServerError::DeadlineExceeded), "{err}");
        assert_eq!(router.stats().deadline_exceeded_count(), 1);
        // The deadline miss is not counted as an ordinary error.
        assert_eq!(router.stats().error_count(), 0);
    }

    #[test]
    fn already_expired_queries_answer_without_touching_shards_or_cache() {
        let router = two_shard_router();
        // Warm the cache so a hit would be possible.
        router.route("rust").unwrap();
        assert_eq!(router.cache_counters().insertions, 1);
        let err = router.route("@d=0 rust").unwrap_err();
        assert!(matches!(err, ServerError::DeadlineExceeded), "{err}");
        // The expired query neither probed nor repopulated the cache.
        assert_eq!(router.cache_counters().hits, 0);
        assert_eq!(router.cache_counters().insertions, 1);
    }

    #[test]
    fn default_deadline_applies_to_plain_routed_queries() {
        let router = Router::new(
            vec![Box::new(SlowShard { delay: Duration::from_millis(400) })],
            RouterConfig {
                default_deadline: Some(Duration::from_millis(20)),
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let started = Instant::now();
        let err = router.route("rust").unwrap_err();
        assert!(started.elapsed() < Duration::from_millis(250));
        assert!(matches!(err, ServerError::DeadlineExceeded), "{err}");
    }

    #[test]
    fn unlimited_queries_still_wait_for_slow_shards() {
        let router = Router::new(
            vec![Box::new(SlowShard { delay: Duration::from_millis(50) })],
            RouterConfig::default(),
        )
        .unwrap();
        let response = router.route("rust").unwrap();
        assert!(!response.partial());
        assert!(!response.deadline_exceeded);
        assert_eq!(response.hits.len(), 1);
    }

    #[test]
    fn remote_shard_streams_have_nagle_off() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let shard = RemoteShard::new(listener.local_addr().unwrap().to_string());
        assert!(shard.connect(None).unwrap().nodelay().unwrap());
    }

    #[test]
    fn remote_shard_reports_unreachable_addresses_as_unavailable() {
        // A port nothing listens on: connect fails fast.
        let shard = RemoteShard::with_config(
            "127.0.0.1:1",
            RemoteShardConfig {
                connect_timeout: Duration::from_millis(200),
                ..RemoteShardConfig::default()
            },
        );
        assert_eq!(shard.addr(), "127.0.0.1:1");
        let err = shard.search("rust").unwrap_err();
        assert!(matches!(err, ShardError::Unavailable(_)), "{err}");
        let err = shard.stats_line().unwrap_err();
        assert!(matches!(err, ShardError::Unavailable(_)), "{err}");
        assert!(format!("{shard:?}").contains("pooled"));
    }
}
