//! Distributed scatter-gather serving: the [`ShardBackend`] seam and the
//! [`Router`] behind `dsearch route`.
//!
//! This module makes query execution generic over *where the shards live*:
//!
//! * [`ShardBackend`] — anything that can answer a canonical query with
//!   ranked hits and report a stats line.  Two implementations:
//!   [`LocalShards`] (the sealed-snapshot path through a [`QueryEngine`])
//!   and [`RemoteShard`] (a pooled TCP client speaking the line protocol to
//!   a `dsearch serve` process — the same bytes a human types at the
//!   prompt).
//! * [`Router`] — fans each query (and each drained batch) out to every
//!   backend concurrently, merges the per-shard rankings through the k-way
//!   machinery in [`dsearch_query::merge_ranked`], and degrades gracefully:
//!   a shard that is down or times out costs its hits, not the response —
//!   the answer is flagged `partial=true` and the failure is counted as
//!   `shard_errors=` in `!stats`.  Only when *every* shard fails does the
//!   client see an error.
//! * `BackendWorker` — the persistent thread that owns the calls to one
//!   backend: the router keeps one per shard, a
//!   [`ReplicaSet`](crate::replica::ReplicaSet) one per replica, each with
//!   its own completion hook (round-trip histogram; breaker and in-flight
//!   bookkeeping).  A backend that panics fails the batch it was answering
//!   (`unavailable: … panicked`), never the thread.
//! * The router is an [`Executor`]: [`RouterPool`] and
//!   [`RouteService`](crate::serve::RouteService) are the shared
//!   [`Pool`] and [`LineService`](crate::serve::LineService) over it, so
//!   `--queue-bound`, `--overload`, `--max-batch` and adaptive batching all
//!   apply to the coordinator too, and `dsearch route` plugs into the same
//!   stdin/TCP front ends as `dsearch serve`.
//!
//! Shard-local file ids do not survive the wire (every `dsearch serve`
//! process numbers its own documents from zero), so cross-shard merging keys
//! on paths — see [`RankedHit`].

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dsearch_obs::{next_trace_id, MetricsRegistry, QueryTrace, ShardSpan, Span, Stage};
use dsearch_query::{merge_ranked, RankedHit};

use crate::batch::{Answer, BatchConfig, BatchFrame, Executor, Pending, Pool};
use crate::cache::{CacheCounters, CacheKey, CacheKeyRef, QueryCache};
use crate::engine::{ConfigError, QueryEngine, ServerError};
use crate::protocol::{
    parse_hit_line, prefix_deadline_ms, prefix_trace_id, read_response, render_error_text,
    render_info_with_body, render_routed_response, split_request_meta,
};
use crate::stats::{DeadlineStage, Metric, ServerStats};

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
    id: String,
}

impl LocalShards {
    /// Wraps `engine` as the backend named `"local"`.
    #[must_use]
    pub fn new(engine: Arc<QueryEngine>) -> Self {
        LocalShards { engine, id: "local".to_owned() }
    }

    /// Sets the backend id (useful when several local backends coexist).
    #[must_use]
    pub fn with_id(mut self, id: impl Into<String>) -> Self {
        self.id = id.into();
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
        match self.engine.reload() {
            None => Err(ShardError::Rejected("reload unavailable: no store path".to_owned())),
            Some(Ok(generation)) => Ok(format!("reloaded generation={generation}")),
            Some(Err(e)) => Err(ShardError::Rejected(format!("reload failed: {e}"))),
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
            Err(e) => vec![Err(e); canonicals.len()],
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
        self.search_batch(&lines)
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
    /// Scatters the router's pool runs at once — its execution slots, and
    /// the worker threads draining the admission queue.
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

/// What a query reads of a backend whose call panicked.
fn backend_panicked() -> ShardError {
    ShardError::Unavailable("shard backend panicked".to_owned())
}

/// One backend's answers for a whole batch, plus the round trip its
/// [`BackendWorker`] observed around the call.
pub(crate) type TimedReplies = (Vec<Result<ShardReply, ShardError>>, Duration);

/// The gather side of a fan-out: `(backend index, timed replies)`.
pub(crate) type GatherSender = mpsc::Sender<(usize, TimedReplies)>;

/// One batch handed to a [`BackendWorker`]'s thread.
struct BackendTask {
    canonicals: Arc<Vec<String>>,
    ids: Arc<Vec<u64>>,
    respond: Option<GatherSender>,
    index: usize,
}

/// The guarded call to one backend, shared by its worker thread and callers
/// that run it on their own thread.
type BackendCall = dyn Fn(&[String], &[u64]) -> TimedReplies + Send + Sync;

/// A persistent worker thread owning the calls to one backend.  Spawning a
/// thread per scatter would cost tens of microseconds per query; a
/// long-lived worker per backend makes the fan-out a channel send, and a
/// reply nobody waits for any more (a scatter past its deadline, a hedge
/// that lost) is drained here.
pub(crate) struct BackendWorker {
    call: Arc<BackendCall>,
    /// `None` only while dropping (closing the channel ends the thread).
    tasks: Option<mpsc::Sender<BackendTask>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl BackendWorker {
    /// Starts the worker for `backend`.  `on_complete` sees every finished
    /// call — answered, failed or abandoned — before its replies are sent.
    pub(crate) fn spawn(
        backend: Arc<dyn ShardBackend>,
        on_complete: impl Fn(&TimedReplies) + Send + Sync + 'static,
    ) -> Self {
        let call: Arc<BackendCall> = Arc::new(move |canonicals, ids| {
            let sent = Instant::now();
            // A panicking backend must not kill the worker: gathers count
            // outstanding dispatches, and the shard would read "worker died"
            // on every later query.
            let replies =
                catch_unwind(AssertUnwindSafe(|| backend.search_batch_traced(canonicals, ids)))
                    .unwrap_or_else(|_| vec![Err(backend_panicked()); canonicals.len()]);
            let timed = (replies, sent.elapsed());
            on_complete(&timed);
            timed
        });
        let (tasks, receiver) = mpsc::channel::<BackendTask>();
        let on_thread = Arc::clone(&call);
        let handle = std::thread::spawn(move || {
            while let Ok(task) = receiver.recv() {
                let timed = on_thread(&task.canonicals, &task.ids);
                if let Some(respond) = task.respond {
                    // The gather may have given up on this call; fine.
                    let _ = respond.send((task.index, timed));
                }
            }
        });
        BackendWorker { call, tasks: Some(tasks), handle: Some(handle) }
    }

    /// Queues one call: the canonical queries, one trace id per canonical
    /// (zeroes on the untraced path), and the channel the replies travel
    /// back on, tagged `index` so the gather can line results up.  With
    /// `respond: None` nobody waits (a replica probe) and only the completion
    /// hook sees the replies.  `false` when the worker is gone (only while
    /// dropping).
    pub(crate) fn dispatch(
        &self,
        canonicals: &Arc<Vec<String>>,
        ids: &Arc<Vec<u64>>,
        respond: Option<&GatherSender>,
        index: usize,
    ) -> bool {
        let task = BackendTask {
            canonicals: Arc::clone(canonicals),
            ids: Arc::clone(ids),
            respond: respond.cloned(),
            index,
        };
        self.tasks.as_ref().is_some_and(|tasks| tasks.send(task).is_ok())
    }

    /// The same guarded call, hook included, on the caller's own thread.
    pub(crate) fn call_inline(&self, canonicals: &[String], ids: &[u64]) -> TimedReplies {
        (self.call)(canonicals, ids)
    }
}

impl Drop for BackendWorker {
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
    /// One persistent worker per backend (same order).  Each feeds every
    /// round trip it observes to its backend's `dsearch_shard_rtt_ns{shard=…}`
    /// histogram, interned once so the scatter hot path never touches the
    /// registry lock.
    fanout: Vec<BackendWorker>,
    /// Merged complete answers keyed by canonical query and the router's
    /// reload epoch; `None` when disabled.  Partial answers are never
    /// inserted, so a recovered shard is always re-asked.
    cache: Option<QueryCache<Arc<Vec<RankedHit>>>>,
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
        let stats = ServerStats::new();
        for backend in &backends {
            backend.bind_metrics(stats.registry());
        }
        let fanout = backends
            .iter()
            .map(|backend| {
                let rtt_hist = stats.shard_rtt_histogram(&backend.id());
                BackendWorker::spawn(Arc::clone(backend), move |(_, rtt)| rtt_hist.record(*rtt))
            })
            .collect();
        let cache = (config.cache_capacity > 0).then(|| {
            QueryCache::new(config.cache_capacity, config.cache_shards).counting_into(&stats)
        });
        stats.gauge(Metric::Generation).set(1);
        Ok(Arc::new(Router { backends, fanout, cache, config, stats }))
    }

    /// The current reload epoch (part of every cache key): the router's
    /// `generation=`, kept in that gauge and nowhere else.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.stats.get(Metric::Generation)
    }

    /// Invalidates the result cache by moving to a fresh epoch (after a
    /// reload changed what the shards would answer).
    pub fn bump_epoch(&self) {
        self.stats.gauge(Metric::Generation).inc();
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
        self.run_batch(raws, Instant::now(), Duration::ZERO)
    }

    /// One `search_batch_traced` per backend, concurrently: the scatter.
    /// Each backend's persistent worker receives the batch over a channel
    /// and reports its round trip.  With no deadline to watch, the first
    /// backend is called on this thread instead, while the others' workers
    /// call theirs: one hand-off fewer per scatter, none at all over a single
    /// backend.
    ///
    /// With a `deadline` every backend is dispatched — a call on this thread
    /// could not be abandoned — and the gather never waits past it: backends
    /// that have not answered by then count as unavailable and the second
    /// return value is `true` — the scatter degraded instead of hanging.  The
    /// abandoned worker finishes (and discards) its reply in the
    /// background, so a stalled shard delays its own next scatter, never
    /// this one.
    fn scatter(
        &self,
        lines: &[String],
        ids: &[u64],
        deadline: Option<Instant>,
    ) -> (Vec<TimedReplies>, bool) {
        // Backends from this one on go to their workers; the one before it,
        // if there is one, is called here.
        let first_dispatched = usize::from(deadline.is_none());
        let (respond, gathered) = mpsc::channel();
        let mut pending = 0usize;
        let mut replies: Vec<Option<TimedReplies>> = self.backends.iter().map(|_| None).collect();
        if first_dispatched < self.fanout.len() {
            let lines = Arc::new(lines.to_vec());
            let ids = Arc::new(ids.to_vec());
            for (index, worker) in self.fanout.iter().enumerate().skip(first_dispatched) {
                if worker.dispatch(&lines, &ids, Some(&respond), index) {
                    pending += 1;
                }
            }
        }
        if first_dispatched == 1 {
            replies[0] = Some(self.fanout[0].call_inline(lines, ids));
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
            let Some((index, timed)) = received else { break };
            replies[index] = Some(timed);
        }
        let missing =
            if expired { "deadline exceeded waiting for shard" } else { "shard worker died" };
        let missing = vec![Err(ShardError::Unavailable(missing.to_owned())); lines.len()];
        let replies = replies
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|| (missing.clone(), Duration::ZERO)))
            .collect();
        (replies, expired)
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("backends", &self.backends.len())
            .field("config", &self.config)
            .finish()
    }
}

/// The shared [`Pool`] over a [`Router`]: each batch costs one scatter per
/// backend instead of one per query.
pub type RouterPool = Pool<Router>;

/// A query submitted to a [`RouterPool`], waiting for its worker.
pub type PendingRoutedResponse = Pending<RoutedResponse>;

/// The stats-line fields summed across shards into the router's `!stats`
/// report.
const AGGREGATED_FIELDS: &[&str] = &["queries", "errors", "shed", "batched", "dedup_hits"];

/// One control-plane call per backend, concurrently: a down shard costs the
/// report one connect timeout, not one per shard in sequence.  `on_panic`
/// supplies the result for a backend that panicked mid-call.
pub(crate) fn control_fanout<'a, R: Send>(
    backends: impl Iterator<Item = &'a Arc<dyn ShardBackend>>,
    call: impl Fn(&dyn ShardBackend) -> R + Sync,
    on_panic: impl Fn() -> R,
) -> Vec<(String, R)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = backends
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

impl Executor for Router {
    type Response = RoutedResponse;

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

    /// Parses once at the router — shards only ever see canonical queries,
    /// and identical spellings collapse to one scatter — then: cache probe,
    /// one scatter per backend for what is left, merge.
    fn run_batch(
        &self,
        raws: &[&str],
        started: Instant,
        fill_wait: Duration,
    ) -> Vec<Result<RoutedResponse, ServerError>> {
        let mut frame =
            BatchFrame::open(raws, started, fill_wait, self.config.default_deadline, &self.stats);
        let parse_done = frame.parse_done;
        // Deadline checkpoint ahead of the cache probe, for every group.
        let mut groups = std::mem::take(&mut frame.groups);
        groups.retain(|_, group| {
            frame.retain_live(&mut group.positions, parse_done, DeadlineStage::Scatter);
            !group.positions.is_empty()
        });
        let unfinished = Arc::clone(&frame.unfinished);
        let respond = |query: &str, hits, shard_failures, deadline_exceeded| RoutedResponse {
            query: query.to_owned(),
            hits,
            shards_total: self.backends.len(),
            shard_failures,
            deadline_exceeded,
            latency: Duration::ZERO,
            trace: Arc::clone(&unfinished),
        };
        // Serve whole groups from the result cache before scattering: a
        // cached group costs no shard traffic at all.  Only complete merges
        // ever enter the cache, so a hit is never a stale partial answer.
        let epoch = self.epoch();
        if let Some(cache) = &self.cache {
            groups.retain(|canonical, group| {
                let key = CacheKeyRef { query: canonical, generation: epoch };
                let Some(hits) = cache.get(key) else { return true };
                let response = respond(canonical, (*hits).clone(), Vec::new(), false);
                frame.answer(&group.positions, Ok(response));
                false
            });
        }
        if !groups.is_empty() {
            let canonicals: Vec<&String> = groups.keys().collect();
            // Trace ids travel to the shards only when someone will read
            // them — the client sent an `@<hex id>` prefix or the router's
            // slow-query log is armed — so the untraced hot path never pays
            // for id generation or per-shard span collection.
            let traced = frame.traced() || self.stats.slow_log().threshold().is_some();
            let shard_ids: Vec<u64> = if traced {
                canonicals.iter().map(|_| next_trace_id()).collect()
            } else {
                vec![0; canonicals.len()]
            };
            // The gather waits until the most patient group's deadline.
            let group_deadlines: Vec<Option<Instant>> =
                groups.values().map(|group| frame.group_deadline(&group.positions)).collect();
            let batch_deadline =
                frame.group_deadline(groups.values().flat_map(|group| &group.positions));
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
                    None => (*canonical).clone(),
                })
                .collect();
            let (mut per_backend, scatter_expired) =
                self.scatter(&wire_lines, &shard_ids, batch_deadline);
            let scatter_done = Instant::now();
            frame.trace.record(Stage::Scatter, scatter_done.saturating_duration_since(parse_done));
            if traced {
                // One timing block per backend.  Shard-side stage spans are
                // batch-shared, so the first reply represents the batch.
                for (backend, (replies, rtt)) in self.backends.iter().zip(&per_backend) {
                    let stages = match replies.first() {
                        Some(Ok(reply)) => reply.stages.clone(),
                        _ => Vec::new(),
                    };
                    frame.trace.push_shard(ShardSpan { shard: backend.id(), rtt: *rtt, stages });
                }
            }
            // Walk the groups back-to-front so each backend's reply for the
            // current query can be popped (moved, not cloned) off its vec.
            for ((canonical, group), group_deadline) in
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
                if !failures.is_empty() {
                    self.stats.add(Metric::ShardErrors, failures.len() as u64);
                }
                let deadline_expired = scatter_expired && group_deadline.is_some();
                let result = if failures.len() == self.backends.len() {
                    if deadline_expired {
                        // No shard made the budget: the deadline, not the
                        // shards, is what failed the query.
                        self.stats.record_deadline_exceeded(DeadlineStage::Scatter);
                        Err(ServerError::DeadlineExceeded)
                    } else {
                        self.stats.inc(Metric::Errors);
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
                    } else {
                        self.stats.add(Metric::Partial, group.positions.len() as u64);
                    }
                    Ok(respond(canonical, hits, failures, deadline_exceeded))
                };
                frame.answer(&group.positions, result);
            }
            frame.trace.record(Stage::Merge, scatter_done.elapsed());
        }
        frame.close()
    }

    fn refresh_gauges(&self) {
        let Some(cache) = &self.cache else { return };
        let bytes = cache.resident_bytes(|hits| {
            hits.capacity() * std::mem::size_of::<RankedHit>()
                + hits.iter().map(|hit| hit.path.len()).sum::<usize>()
        });
        self.stats.gauge(Metric::CacheEntries).set(cache.len() as u64);
        self.stats.gauge(Metric::CacheResident).set(bytes as u64);
    }

    /// The router's own counters on the status line — the same rendering of
    /// the same table as a shard's (`shard_errors=` and `partial=` count
    /// here) — then per-shard stats aggregated into `shards_*=` sums, and one
    /// body line per shard (`shard <id> <stats>` or `shard <id> DOWN <why>`).
    fn stats_answer(&self) -> String {
        self.refresh_gauges();
        let mut sums: BTreeMap<&str, u64> = AGGREGATED_FIELDS.iter().map(|f| (*f, 0)).collect();
        let mut down = 0usize;
        let mut body = Vec::with_capacity(self.backends.len());
        let reports = control_fanout(
            self.backends.iter(),
            |backend| (backend.stats_line(), backend.replica_status()),
            || (Err(backend_panicked()), Vec::new()),
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
        let status = format!(
            "router {} shards={} shards_down={down} {}",
            self.stats.render(),
            self.backends.len(),
            aggregated.join(" "),
        );
        render_info_with_body(&status, body)
    }

    /// One `# shard <id> reload ok|err=` body line per underlying backend
    /// (replica-set members individually), and a summary counting both
    /// sides — a member whose reload was refused is never folded into an
    /// aggregate success.
    fn reload_answer(&self) -> String {
        let mut body = Vec::with_capacity(self.backends.len());
        let mut ok = 0usize;
        let mut failed = 0usize;
        let outcomes = control_fanout(
            self.backends.iter(),
            |backend| backend.reload_detailed(),
            || vec![("unknown".to_owned(), Err(backend_panicked()))],
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
        self.bump_epoch();
        render_info_with_body(
            &format!("reloaded shards={ok}/{} failed={failed}", ok + failed),
            body,
        )
    }
}

impl Answer for RoutedResponse {
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
        render_routed_response(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::serve::{Handled, LineHandler, RouteService};
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
        assert_eq!(router.stats().get(Metric::Queries), 1);
        assert_eq!(router.stats().get(Metric::ShardErrors), 0);
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
        assert_eq!(router.stats().get(Metric::DedupHits), 1);
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
        assert_eq!(router.stats().get(Metric::Errors), 1);
        // The malformed query never reached the shard.
        assert_eq!(engine.stats().get(Metric::Queries), 0);
        assert_eq!(engine.stats().get(Metric::Errors), 0);
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
        assert_eq!(router.stats().get(Metric::ShardErrors), 1);
        assert_eq!(router.stats().get(Metric::Partial), 1);
    }

    #[test]
    fn router_fails_the_query_only_when_every_shard_is_down() {
        let router =
            Router::new(vec![Box::new(DeadShard), Box::new(DeadShard)], RouterConfig::default())
                .unwrap();
        let err = router.route("rust").unwrap_err();
        assert_eq!(err, ServerError::AllShardsFailed);
        assert!(err.to_string().contains("all shards"));
        assert_eq!(router.stats().get(Metric::ShardErrors), 2);
        assert_eq!(router.stats().get(Metric::Errors), 1);
        assert_eq!(router.stats().get(Metric::Queries), 0);
    }

    /// A backend that panics on its first call and answers like `inner`
    /// from then on.
    struct PanicsOnce {
        inner: LocalShards,
        armed: std::sync::atomic::AtomicBool,
    }

    impl ShardBackend for PanicsOnce {
        fn id(&self) -> String {
            self.inner.id()
        }

        fn search(&self, canonical: &str) -> Result<ShardReply, ShardError> {
            assert!(!self.armed.swap(false, std::sync::atomic::Ordering::SeqCst), "scripted panic");
            self.inner.search(canonical)
        }

        fn stats_line(&self) -> Result<String, ShardError> {
            self.inner.stats_line()
        }

        fn reload(&self) -> Result<String, ShardError> {
            self.inner.reload()
        }
    }

    #[test]
    fn a_backend_that_panics_once_costs_one_answer_not_its_worker() {
        for healthy in [0, 1] {
            let mut backends: Vec<Box<dyn ShardBackend>> = vec![Box::new(PanicsOnce {
                inner: LocalShards::new(engine_over(&[("a.txt", &["rust", "search"])])),
                armed: std::sync::atomic::AtomicBool::new(true),
            })];
            for _ in 0..healthy {
                backends.push(local(&[("b.txt", &["rust", "search"])], "healthy"));
            }
            let shards = backends.len();
            let router = Router::new(backends, RouterConfig::default()).unwrap();
            // The panic is the shard's failure for that one query: with
            // nobody else to answer it the query fails, otherwise it is
            // partial.
            match router.route("rust") {
                Ok(response) => {
                    assert_eq!(shards, 2);
                    assert_eq!(response.shard_failures.len(), 1);
                    let why = response.shard_failures[0].1.to_string();
                    assert!(why.contains("panicked"), "{why}");
                }
                Err(e) => assert_eq!((shards, e), (1, ServerError::AllShardsFailed)),
            }
            let after = router.route("search").unwrap();
            assert!(!after.partial(), "{shards} shard(s): {:?}", after.shard_failures);
            assert_eq!(after.hits.len(), shards);
        }
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
        assert!(router.stats().render().contains(" deadline_exceeded=1 "));
        assert_eq!(router.stats().deadline_exceeded(DeadlineStage::Scatter), 1);
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
        assert!(router.stats().render().contains(" deadline_exceeded=1 "));
        // The deadline miss is not counted as an ordinary error.
        assert_eq!(router.stats().get(Metric::Errors), 0);
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
