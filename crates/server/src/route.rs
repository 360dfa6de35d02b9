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
//!   shard concurrently, merges the per-shard rankings through the k-way
//!   machinery in [`dsearch_query::merge_ranked`], and degrades gracefully:
//!   a shard that is down or times out costs its hits, not the response —
//!   the answer is flagged `partial=true` and the failure is counted as
//!   `shard_errors=` in `!stats`.  Only when *every* shard fails does the
//!   client see an error.
//! * Every shard is a [`ReplicaSet`] — a plain backend is a set of one —
//!   and the scatter is the replica module's one gather over all of them:
//!   one worker thread per backend, one pick, and one loop that waits for
//!   replies, hedge timers and the query's deadline together.  `!stats`
//!   and `!reload` reach every member directly.
//! * The router is an [`Executor`]: [`RouterPool`] and
//!   [`RouteService`](crate::serve::RouteService) are the shared
//!   [`Pool`] and [`LineService`](crate::serve::LineService) over it, so
//!   `--queue-bound` and `--max-batch` apply to the coordinator too, and
//!   `dsearch route` plugs into the same stdin/TCP front ends as `dsearch
//!   serve`.
//!
//! Shard-local file ids do not survive the wire (every `dsearch serve`
//! process numbers its own documents from zero), so cross-shard merging keys
//! on paths — see [`RankedHit`].

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dsearch_obs::{next_trace_id, QueryTrace, ShardSpan, Span, Stage};
use dsearch_query::{merge_ranked, RankedHit};

use crate::batch::{Answer, BatchConfig, BatchFrame, Executor, Pending, Pool};
use crate::cache::{CacheCounters, CacheKey, CacheKeyRef, QueryCache};
use crate::engine::{ConfigError, QueryEngine, ServerError, DEFAULT_RESULT_LIMIT};
use crate::protocol::{
    parse_hit_line, prefix_deadline_ms, prefix_trace_id, read_bounded_line, read_response,
    render_error_text, render_info_with_body, render_routed_response, split_request_meta, LineRead,
};
use crate::replica::{gather, ReplicaSet};
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

/// One backend's replies to a batch, one per query in order.
pub(crate) type Replies = Vec<Result<ShardReply, ShardError>>;

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
    /// `ids[i]` is the trace id of `canonicals[i]`, zero meaning untraced,
    /// so a distributed trace can be joined across the router's and the
    /// shard's slow-query logs; backends that understand tracing also return
    /// their stage breakdowns in the replies.  `limit` is the router's own
    /// result limit: no more of a shard's hits can reach its answer, and a
    /// remote shard's reply holding more lines than that (and a trace block)
    /// has failed.  The default ignores the ids and the limit and makes one
    /// call per query; local and remote shards override it to answer the
    /// whole batch at once.
    fn search_batch(&self, canonicals: &[String], ids: &[u64], limit: usize) -> Replies {
        let _ = (ids, limit);
        canonicals.iter().map(|c| self.search(c)).collect()
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
}

/// `canonicals` with their trace ids as `@<hex id>` prefixes, or as they are
/// when none is traced — the untraced hot path copies nothing.
fn with_trace_ids<'a>(canonicals: &'a [String], ids: &[u64]) -> Cow<'a, [String]> {
    if ids.iter().all(|&id| id == 0) {
        return Cow::Borrowed(canonicals);
    }
    Cow::Owned(canonicals.iter().zip(ids).map(|(c, &id)| prefix_trace_id(id, c)).collect())
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

    fn search_batch(&self, canonicals: &[String], ids: &[u64], _limit: usize) -> Replies {
        let lines = with_trace_ids(canonicals, ids);
        let traced = matches!(lines, Cow::Owned(_));
        let raws: Vec<&str> = lines.iter().map(String::as_str).collect();
        self.engine
            .execute_batch(&raws)
            .into_iter()
            .map(|r| LocalShards::convert(r, traced))
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

/// Body lines a shard's reply may carry beyond its hits: the per-shard
/// lines of a shard that is itself a router — the `# shard` block of a
/// traced answer, or the body of its `!stats` — for up to this many shards
/// behind it.
const MAX_PER_SHARD_LINES: usize = 1024;

/// The lines of one shard's replies, each read through
/// [`read_bounded_line`] and none kept past the next: a line longer than
/// [`MAX_LINE_BYTES`](crate::protocol::MAX_LINE_BYTES), or a reply of more
/// than `left` lines, is an error, and nothing more is read.
struct ReplyLines<R> {
    input: R,
    buffer: Vec<u8>,
    /// Lines the reply being read may still hold.
    left: usize,
}

impl<R: BufRead> Iterator for ReplyLines<R> {
    type Item = io::Result<String>;

    fn next(&mut self) -> Option<io::Result<String>> {
        let refused = |what: &str| Some(Err(io::Error::new(io::ErrorKind::InvalidData, what)));
        let Some(left) = self.left.checked_sub(1) else {
            return refused("reply longer than a well-formed one");
        };
        self.left = left;
        match read_bounded_line(&mut self.input, &mut self.buffer) {
            Err(e) => Some(Err(e)),
            Ok(LineRead::Eof) => None,
            Ok(LineRead::TooLong) => refused("reply line too long"),
            Ok(LineRead::Line) => {
                let line = self.buffer.strip_suffix(b"\n").unwrap_or(&self.buffer);
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                match std::str::from_utf8(line) {
                    Ok(line) => Some(Ok(line.to_owned())),
                    Err(_) => refused("reply line is not UTF-8"),
                }
            }
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

    /// Sends `lines` down one connection and reads one response per line,
    /// each of at most `body_lines` lines between its status and `END`.
    /// Lines carrying an `@d=<ms>` deadline prefix clamp the connect and io
    /// timeouts for the exchange to the tightest budget in the batch: a
    /// query whose caller gives up in 5ms must not hold a 2s socket timeout.
    fn exchange(
        &self,
        lines: &[String],
        body_lines: usize,
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
        match self.exchange_on(stream, lines, body_lines) {
            Ok(responses) => Ok(responses),
            // A pooled connection may have been closed server-side (idle
            // timeout, restart): that shows as a write failure or a clean
            // EOF before any response, and only then is a fresh retry safe.
            // A *timeout* means a live shard still chewing on the request —
            // re-sending would double its load exactly when it is slow.
            Err(failure) if had_pooled && failure.stale_connection => {
                self.exchange_on(self.connect(budget)?, lines, body_lines).map_err(|f| f.error)
            }
            Err(failure) => Err(failure.error),
        }
    }

    fn exchange_on(
        &self,
        mut stream: TcpStream,
        lines: &[String],
        body_lines: usize,
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
        let mut replies =
            ReplyLines { input: BufReader::new(&stream), buffer: Vec::new(), left: 0 };
        let mut responses = Vec::with_capacity(lines.len());
        for _ in lines {
            // The status line, the body and `END`.
            replies.left = body_lines.saturating_add(2);
            match read_response(&mut replies) {
                Some(Ok(response)) => responses.push(response),
                Some(Err(e)) => {
                    // The connection goes with the failure: what is left of
                    // the reply is never read.
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
        drop(replies);
        self.checkin(stream);
        Ok(responses)
    }

    /// Sends one control line (`!stats`, `!reload`) and returns its status.
    fn control(&self, line: &str) -> Result<String, ShardError> {
        let response = self
            .exchange(&[line.to_owned()], MAX_PER_SHARD_LINES)?
            .pop()
            .expect("one request in, one response out");
        if response.ok {
            Ok(response.status)
        } else {
            Err(ShardError::Rejected(response.status))
        }
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

    /// Asks the shard as a router with the default `--limit` would.
    fn search(&self, canonical: &str) -> Result<ShardReply, ShardError> {
        self.search_batch(&[canonical.to_owned()], &[0], DEFAULT_RESULT_LIMIT)
            .pop()
            .expect("one query in, one reply out")
    }

    fn search_batch(&self, canonicals: &[String], ids: &[u64], limit: usize) -> Replies {
        let body_lines = limit.saturating_add(MAX_PER_SHARD_LINES);
        match self.exchange(&with_trace_ids(canonicals, ids), body_lines) {
            Ok(responses) => responses.into_iter().map(|r| self.reply_from(r)).collect(),
            Err(e) => vec![Err(e); canonicals.len()],
        }
    }

    fn stats_line(&self) -> Result<String, ShardError> {
        self.control("!stats")
    }

    fn reload(&self) -> Result<String, ShardError> {
        self.control("!reload")
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
            result_limit: DEFAULT_RESULT_LIMIT,
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
pub(crate) fn backend_panicked() -> ShardError {
    ShardError::Unavailable("shard backend panicked".to_owned())
}

/// What a query reads of a shard that had not answered by its deadline.
fn missed_deadline() -> ShardError {
    ShardError::Unavailable("deadline exceeded waiting for shard".to_owned())
}

/// The scatter-gather coordinator: fans queries out to every shard (a
/// [`ReplicaSet`]), merges the rankings, and tolerates missing shards.
pub struct Router {
    shards: Vec<ReplicaSet>,
    /// Merged complete answers keyed by canonical query and the router's
    /// reload epoch; `None` when disabled.  Partial answers are never
    /// inserted, so a recovered shard is always re-asked.
    cache: Option<QueryCache<Arc<Vec<RankedHit>>>>,
    config: RouterConfig,
    stats: ServerStats,
}

impl Router {
    /// Builds a router over `shards`: replica sets, or plain backends (each
    /// a set of one).
    ///
    /// # Errors
    ///
    /// Fails when `shards` is empty or the configuration is invalid.
    pub fn new<S: Into<ReplicaSet>>(
        shards: Vec<S>,
        config: RouterConfig,
    ) -> Result<Arc<Self>, ConfigError> {
        config.validate()?;
        if shards.is_empty() {
            return Err(ConfigError::NoShards);
        }
        let shards: Vec<ReplicaSet> = shards.into_iter().map(Into::into).collect();
        let stats = ServerStats::new();
        for set in &shards {
            set.bind_metrics(stats.registry());
        }
        let cache = (config.cache_capacity > 0).then(|| {
            QueryCache::new(config.cache_capacity, config.cache_shards).counting_into(&stats)
        });
        stats.gauge(Metric::Generation).set(1);
        Ok(Arc::new(Router { shards, cache, config, stats }))
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

    /// The shards, in `--shard` order.
    #[must_use]
    pub fn shards(&self) -> &[ReplicaSet] {
        &self.shards
    }

    /// Every member of every shard, in shard order.
    fn members(&self) -> impl Iterator<Item = &dyn ShardBackend> {
        self.shards.iter().flat_map(ReplicaSet::backends)
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
        self.run_batch(raws, Instant::now())
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.shards.len())
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

/// One control-plane call per member, concurrently: a down member costs the
/// report one connect timeout, not one per member in sequence.  A member
/// whose call panicked reads as [`backend_panicked`].
fn control_fanout<'a>(
    members: impl Iterator<Item = &'a dyn ShardBackend>,
    call: impl Fn(&dyn ShardBackend) -> Result<String, ShardError> + Sync,
) -> Vec<(String, Result<String, ShardError>)> {
    let call = &call;
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            members.map(|member| (member.id(), scope.spawn(move || call(member)))).collect();
        handles
            .into_iter()
            .map(|(id, handle)| (id, handle.join().unwrap_or_else(|_| Err(backend_panicked()))))
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
    ) -> Vec<Result<RoutedResponse, ServerError>> {
        let mut frame = BatchFrame::open(raws, started, self.config.default_deadline, &self.stats);
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
            shards_total: self.shards.len(),
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
            // The scatter: one gather over every shard, which never waits
            // past the batch deadline.  A shard with no answer by then counts
            // as unavailable — the scatter degrades instead of hanging — and
            // its call finishes (and is discarded) on its member's thread.
            let gathered = gather(
                &self.shards,
                &wire_lines,
                &shard_ids,
                self.config.result_limit,
                batch_deadline,
            );
            let scatter_done = Instant::now();
            frame.trace.record(Stage::Scatter, scatter_done.saturating_duration_since(parse_done));
            let scatter_expired = gathered.iter().any(Option::is_none);
            let mut per_shard: Vec<(Replies, Duration)> = gathered
                .into_iter()
                .map(|answer| {
                    answer.unwrap_or_else(|| {
                        (vec![Err(missed_deadline()); wire_lines.len()], Duration::ZERO)
                    })
                })
                .collect();
            if traced {
                // One timing block per shard.  Shard-side stage spans are
                // batch-shared, so the first reply represents the batch.
                for (set, (replies, rtt)) in self.shards.iter().zip(&per_shard) {
                    let stages = match replies.first() {
                        Some(Ok(reply)) => reply.stages.clone(),
                        _ => Vec::new(),
                    };
                    let shard = set.id().to_owned();
                    frame.trace.push_shard(ShardSpan { shard, rtt: *rtt, stages });
                }
            }
            // Walk the groups back-to-front so each shard's reply for the
            // current query can be popped (moved, not cloned) off its vec.
            for ((canonical, group), group_deadline) in
                groups.iter().rev().zip(group_deadlines.iter().rev())
            {
                let mut parts: Vec<Vec<RankedHit>> = Vec::with_capacity(self.shards.len());
                let mut failures: Vec<(String, ShardError)> = Vec::new();
                for (set, (replies, _)) in self.shards.iter().zip(&mut per_shard) {
                    match replies.pop().expect("one reply per canonical per shard") {
                        Ok(reply) => parts.push(reply.hits),
                        Err(e) => failures.push((set.id().to_owned(), e)),
                    }
                }
                if !failures.is_empty() {
                    self.stats.add(Metric::ShardErrors, failures.len() as u64);
                }
                let deadline_expired = scatter_expired && group_deadline.is_some();
                let result = if failures.len() == self.shards.len() {
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
    /// here) — then every member's stats summed into `shards_*=`, and one
    /// body line per shard: a set of one shows its member's line, a larger
    /// set its summary and then one line per replica, and a shard none of
    /// whose members answered is `shard <id> DOWN <why>`.
    fn stats_answer(&self) -> String {
        self.refresh_gauges();
        let mut sums: BTreeMap<&str, u64> = AGGREGATED_FIELDS.iter().map(|f| (*f, 0)).collect();
        let mut down = 0usize;
        let mut body = Vec::with_capacity(self.shards.len());
        let mut reports = control_fanout(self.members(), |member| member.stats_line()).into_iter();
        for set in &self.shards {
            let lines: Vec<_> =
                reports.by_ref().take(set.replica_count()).map(|(_, r)| r).collect();
            let answered: Vec<&String> = lines.iter().flatten().collect();
            for token in answered.iter().flat_map(|line| line.split_whitespace()) {
                let Some((name, value)) = token.split_once('=') else { continue };
                if let (Some(sum), Ok(value)) = (sums.get_mut(name), value.parse::<u64>()) {
                    *sum += value;
                }
            }
            let head = match (&answered[..], &lines[..]) {
                ([], [Err(e), ..]) => {
                    down += 1;
                    format!("DOWN {e}")
                }
                ([line], [_]) => (*line).clone(),
                _ => set.summary_line(),
            };
            let id = set.id();
            body.push(format!("shard {id} {head}"));
            if lines.len() > 1 {
                body.extend(set.replica_lines().iter().map(|line| format!("shard {id} {line}")));
            }
        }
        let aggregated: Vec<String> = AGGREGATED_FIELDS
            .iter()
            .map(|field| format!("shards_{field}={}", sums[*field]))
            .collect();
        let status = format!(
            "router {} shards={} shards_down={down} {}",
            self.stats.render(),
            self.shards.len(),
            aggregated.join(" "),
        );
        render_info_with_body(&status, body)
    }

    /// One `# shard <id> reload ok|err=` body line per member, and a summary
    /// counting both sides — a member whose reload was refused is never
    /// folded into an aggregate success.
    fn reload_answer(&self) -> String {
        let mut body = Vec::with_capacity(self.shards.len());
        let mut ok = 0usize;
        let mut failed = 0usize;
        for (id, result) in control_fanout(self.members(), |member| member.reload()) {
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
    use crate::replica::ReplicaSetConfig;
    use crate::serve::{Handled, LineHandler, RouteService};
    use crate::snapshot::IndexSnapshot;
    use crate::stats::SHARD_RTT_METRIC;
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
            Router::new(Vec::<ReplicaSet>::new(), RouterConfig::default()).unwrap_err(),
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
    fn the_routers_gather_hedges_within_the_deadline_and_never_after_it() {
        let set = ReplicaSet::new(
            "set",
            vec![
                Box::new(SlowShard { delay: Duration::from_millis(300) }),
                local(&[("fast.txt", &["rust", "a", "b"])], "fast"),
            ],
            ReplicaSetConfig {
                hedge_after: Some(Duration::from_millis(20)),
                ..ReplicaSetConfig::default()
            },
        )
        .unwrap();
        let router = Router::new(vec![set], RouterConfig::default()).unwrap();
        let service = RouteService::start(Arc::clone(&router));
        let ask = |line: &str| match service.handle(line) {
            Handled::Respond(text) => text,
            other => panic!("{line:?} answered {other:?}"),
        };
        // Both members idle again: the slow one is the primary once more.
        let drain = || {
            let started = Instant::now();
            while !["slow", "fast"].iter().all(|member| {
                ask("!stats").contains(&format!("replica {member} state=closed in_flight=0 "))
            }) {
                assert!(started.elapsed() < Duration::from_secs(2), "{}", ask("!stats"));
                std::thread::sleep(Duration::from_millis(5));
            }
        };

        // No deadline: the slow primary is hedged, and the hedge answers.
        let response = router.route("rust").unwrap();
        let paths: Vec<&str> = response.hits.iter().map(|h| &*h.path).collect();
        assert_eq!(paths, ["fast.txt"]);
        assert!(!response.partial());
        let metrics = ask("!metrics");
        assert!(metrics.contains("\ndsearch_hedges_total 1\n"), "{metrics}");

        // A budget past the hedge timer: the hedge fires inside it, and its
        // answer makes the budget (a complete answer is one that did).
        drain();
        let hedges = router.shards()[0].hedge_count();
        let response = router.route("@d=150 rust OR a").unwrap();
        assert!(!response.partial() && !response.deadline_exceeded, "{response:?}");
        assert_eq!(router.shards()[0].hedge_count(), hedges + 1);

        // A budget shorter than the hedge timer: the deadline wins the wait,
        // and no hedge is sent once the router has given up.
        drain();
        let hedges = router.shards()[0].hedge_count();
        let err = router.route("@d=10 rust OR b").unwrap_err();
        assert!(matches!(err, ServerError::DeadlineExceeded), "{err}");
        drain();
        assert_eq!(router.shards()[0].hedge_count(), hedges, "hedged past the deadline");
        service.shutdown();
    }

    #[test]
    fn a_plain_shards_call_never_holds_up_another_sets_hedge() {
        // Shard 0 is plain and answers at 300 ms; shard 1's primary hangs
        // and its hedge takes 300 ms.  Side by side both are done by about
        // 320 ms; a hedge held up behind shard 0's call would end near 600.
        let set = ReplicaSet::new(
            "set",
            vec![
                Box::new(SlowShard { delay: Duration::from_millis(900) }),
                Box::new(SlowShard { delay: Duration::from_millis(300) }),
            ],
            ReplicaSetConfig {
                hedge_after: Some(Duration::from_millis(20)),
                ..ReplicaSetConfig::default()
            },
        )
        .unwrap();
        let plain = ReplicaSet::from(Box::new(SlowShard { delay: Duration::from_millis(300) }));
        let router = Router::new(vec![plain, set], RouterConfig::default()).unwrap();
        let started = Instant::now();
        let response = router.route("rust").unwrap();
        let elapsed = started.elapsed();
        assert!(!response.partial(), "{response:?}");
        assert_eq!(router.shards()[1].hedge_count(), 1);
        assert!(elapsed < Duration::from_millis(500), "took {elapsed:?}, not ~320 ms");
    }

    #[test]
    fn a_shards_rtt_is_when_its_answer_was_ready_not_when_the_gather_read_it() {
        // Both shards are plain, so the slow first one is called on this
        // thread and the gather reads the fast one's reply 200 ms late.
        let shards: Vec<Box<dyn ShardBackend>> = vec![
            Box::new(SlowShard { delay: Duration::from_millis(200) }),
            local(&[("a.txt", &["rust"])], "fast"),
        ];
        let router = Router::new(shards, RouterConfig::default()).unwrap();
        router.route("rust").unwrap();
        let snapshot = router.stats().registry().snapshot();
        let rtt = |shard| {
            let histogram = snapshot.histogram(SHARD_RTT_METRIC, Some(("shard", shard))).unwrap();
            (histogram.count, Duration::from_nanos(histogram.max_ns))
        };
        let (slow, fast) = (rtt("slow"), rtt("fast"));
        assert_eq!((slow.0, fast.0), (1, 1));
        assert!(slow.1 >= Duration::from_millis(200), "{slow:?}");
        assert!(fast.1 < slow.1 / 2, "fast shard timed at {fast:?}, slow at {slow:?}");
    }

    #[test]
    fn stats_sums_every_member_and_a_shard_is_down_only_with_all_of_them() {
        let files: &[(&str, &[&str])] = &[("a.txt", &["rust", "index", "search"])];
        let set = ReplicaSet::new(
            "set",
            vec![local(files, "r0"), local(files, "r1")],
            ReplicaSetConfig::default(),
        )
        .unwrap();
        let dead = ReplicaSet::new(
            "dead-set",
            vec![Box::new(DeadShard), Box::new(DeadShard)],
            ReplicaSetConfig::default(),
        )
        .unwrap();
        let service =
            RouteService::start(Router::new(vec![set, dead], RouterConfig::default()).unwrap());
        for query in ["rust", "index", "search"] {
            assert!(matches!(service.handle(query), Handled::Respond(_)));
        }
        let Handled::Respond(stats) = service.handle("!stats") else {
            panic!("stats should respond");
        };
        assert!(stats.contains("shards=2 shards_down=1 shards_queries=3 "), "{stats}");
        assert!(stats.contains("\nshard set replicas=2 healthy=2 "), "{stats}");
        assert!(stats.contains("\nshard set replica r1 state=closed "), "{stats}");
        assert!(stats.contains("\nshard dead-set DOWN "), "{stats}");
        assert!(stats.contains("\nshard dead-set replica dead state="), "{stats}");
        service.shutdown();
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
