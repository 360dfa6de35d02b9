//! The serving skeleton `dsearch serve` and `dsearch route` share.
//!
//! * [`Executor`] — what the skeleton needs of the thing that answers
//!   queries; [`QueryEngine`](crate::engine::QueryEngine) and
//!   [`Router`](crate::route::Router) implement it.
//! * `QueueGovernor` — the execution slots and the admission-controlled
//!   queue behind them.  At most [`Executor::workers`] executions are in
//!   flight; a request that arrives while a slot is free and nothing is
//!   queued is granted the slot and never enters the queue.  Submissions past
//!   a configurable depth bound are shed according to an [`OverloadPolicy`]
//!   (reject the new request, or drop the oldest queued one), counted in
//!   [`ServerStats`] and answered with [`ServerError::Overloaded`].  A worker
//!   takes a slot and drains up to [`BatchConfig::max_batch`] queued jobs in
//!   one go (optionally waiting up to [`BatchConfig::max_wait`] for the batch
//!   to fill).
//! * [`Pool`] — [`Pool::execute`] answers a request on the caller's thread
//!   when it is granted a slot; the worker threads drain what had to queue
//!   into [`Executor::run_batch`], and [`Pending`] is what a submitter waits
//!   on.
//! * `BatchFrame` — what every `run_batch` opens and closes with, so that
//!   an executor writes only what is its own: cache probe and evaluation, or
//!   cache probe, scatter and merge.
//!
//! The scheduler favours latency when idle: a lone query is a batch of one
//! on the thread it arrived on, with no hand-off and no fill window, while a
//! backlog — requests beyond the slots — drains in `max_batch`-sized groups,
//! which is where dedup pays off.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use dsearch_obs::{QueryTrace, Stage};
use dsearch_query::Query;

use crate::engine::ServerError;
use crate::protocol::split_request_meta;
use crate::stats::{DeadlineStage, Metric, ServerStats};

/// What to do with a submission when the queue is at its depth bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Refuse the new request (the submitter sees
    /// [`ServerError::Overloaded`] immediately).
    #[default]
    RejectNew,
    /// Admit the new request and shed the oldest queued one (its waiter sees
    /// [`ServerError::Overloaded`]).
    DropOldest,
}

impl std::str::FromStr for OverloadPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reject" | "reject-new" => Ok(OverloadPolicy::RejectNew),
            "drop" | "drop-oldest" => Ok(OverloadPolicy::DropOldest),
            other => Err(format!("unknown overload policy {other:?}; expected reject or drop")),
        }
    }
}

impl std::fmt::Display for OverloadPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverloadPolicy::RejectNew => f.write_str("reject-new"),
            OverloadPolicy::DropOldest => f.write_str("drop-oldest"),
        }
    }
}

/// The fill window `--batch-wait-us auto` arms (the adaptive controller
/// decides per batch whether lingering that long is worth it).
pub const DEFAULT_AUTO_WAIT: Duration = Duration::from_micros(200);

/// How far back the adaptive controller looks when estimating the arrival
/// rate.  Arrivals older than this say nothing about whether the *next* fill
/// window will see traffic.
const ARRIVAL_LOOKBACK: Duration = Duration::from_millis(100);

/// Most arrival timestamps the governor retains for rate estimation.
const ARRIVAL_SAMPLES: usize = 64;

/// Batching and admission-control parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Most jobs one worker drains per batch (must be at least 1).
    pub max_batch: usize,
    /// How long a worker may wait for a partially filled batch to grow.
    /// Zero (the default) means "batch whatever is already queued": no
    /// latency is added when the server is idle, and batches form naturally
    /// from backlog under load.
    pub max_wait: Duration,
    /// Adaptive batching (`--batch-wait-us auto`): linger for `max_wait`
    /// only when the recent arrival rate suggests the partially filled
    /// batch would actually fill within the window; otherwise drain
    /// immediately, skipping the idle-latency tax.  Every decision is
    /// counted (`adaptive_waits=` / `adaptive_skips=` in `!stats`).
    pub adaptive: bool,
    /// Queue-depth bound; `0` disables admission control (unbounded queue).
    pub queue_bound: usize,
    /// What to shed when the queue is at its bound.
    pub overload: OverloadPolicy,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 32,
            max_wait: Duration::ZERO,
            adaptive: false,
            queue_bound: 0,
            overload: OverloadPolicy::RejectNew,
        }
    }
}

/// What [`Pool`], `BatchFrame` and
/// [`LineService`](crate::serve::LineService) need of the thing that answers
/// queries.
pub trait Executor: Send + Sync + 'static {
    /// One answered query.
    type Response: Answer;

    /// The serving counters (`!stats`, `!metrics`, the slow-query log).
    fn stats(&self) -> &ServerStats;

    /// Batching and admission control for the pool's queue.
    fn batch_config(&self) -> BatchConfig;

    /// Executions the pool lets run at once — on callers' threads and on its
    /// own — which is also how many worker threads it spawns.
    fn workers(&self) -> usize;

    /// Deadline applied to queries that carry no `@d=<ms>` budget.
    fn default_deadline(&self) -> Option<Duration>;

    /// Answers a drained batch, one result per raw line in order.  `started`
    /// is when the batch's oldest job was submitted, `fill_wait` how long the
    /// worker lingered for the batch to fill.
    fn run_batch(
        &self,
        raws: &[&str],
        started: Instant,
        fill_wait: Duration,
    ) -> Vec<Result<Self::Response, ServerError>>;

    /// The rendered `!stats` answer.
    fn stats_answer(&self) -> String;

    /// The rendered `!reload` answer.
    fn reload_answer(&self) -> String;

    /// Brings the gauges that are computed on demand (what is served, the
    /// cache's footprint) up to date: `!stats` and `!metrics` do this first.
    fn refresh_gauges(&self) {}
}

/// What the skeleton reads from and writes to an [`Executor::Response`].
pub trait Answer: Clone + Send + 'static {
    /// Canonical (parsed-and-rendered) query text.
    fn query(&self) -> &str;

    /// Wall-clock service time, queue wait included.
    fn latency(&self) -> Duration;

    /// The stage timing record of the batch that answered.
    fn trace(&self) -> &QueryTrace;

    /// Sets the two fields only the end of the batch knows.
    fn stamp(&mut self, latency: Duration, trace: Arc<QueryTrace>);

    /// The response as it goes on the wire.
    fn render(&self) -> String;
}

/// A queued query plus the channel its answer travels back on.
pub(crate) struct Job<R> {
    raw: String,
    respond: mpsc::Sender<Result<R, ServerError>>,
    /// When the job entered the queue; served queries are timed from here so
    /// queueing delay shows up in the latency percentiles.
    submitted: Instant,
    /// Absolute deadline from the request's `@d=<ms>` prefix (or the
    /// executor's default), anchored at submission.  The governor sheds
    /// already-expired jobs at dequeue time — executing dead work is strictly
    /// worse than dropping it.
    deadline: Option<Instant>,
}

impl<R> Job<R> {
    fn new(raw: String, submitted: Instant, deadline: Option<Instant>) -> (Self, Pending<R>) {
        let (respond, receiver) = mpsc::channel();
        (Job { raw, respond, submitted, deadline }, Pending { receiver })
    }

    /// Consumes the job, answering its waiter with `error` so a dropped
    /// request is a fast failure, never a hang.
    fn refuse(self, error: ServerError) {
        // The waiter may have given up; that is not an error.
        let _ = self.respond.send(Err(error));
    }
}

/// A submitted query waiting for its worker.
pub struct Pending<R> {
    receiver: mpsc::Receiver<Result<R, ServerError>>,
}

impl<R> Pending<R> {
    /// Blocks until the worker answers.
    ///
    /// # Errors
    ///
    /// Propagates the worker's error; reports `ShuttingDown` when the pool
    /// died before answering.
    pub fn wait(self) -> Result<R, ServerError> {
        self.receiver.recv().unwrap_or(Err(ServerError::ShuttingDown))
    }
}

/// One drained batch, how long the worker lingered for late arrivals (the
/// batch's shared `batch_fill` span) and the execution slot it runs under.
pub(crate) struct DrainedBatch<'a, R> {
    /// The drained jobs, oldest first.
    jobs: Vec<Job<R>>,
    /// Zero unless a fill window was armed and taken.
    fill_wait: Duration,
    slot: Slot<'a, R>,
}

/// One of the governor's execution slots, held for as long as an execution is
/// in flight and given back on drop, whichever way the execution ends.
pub(crate) struct Slot<'a, R> {
    governor: &'a QueueGovernor<R>,
}

impl<R> Drop for Slot<'_, R> {
    fn drop(&mut self) {
        let mut state = self.governor.state.lock().unwrap_or_else(|e| e.into_inner());
        state.running -= 1;
        // Only a worker kept from a queued job by the slots is worth waking:
        // on an empty queue (every uncontended request) this is no system call.
        let wanted = !state.queue.is_empty();
        drop(state);
        if wanted {
            self.governor.available.notify_all();
        }
    }
}

struct GovernorState<R> {
    queue: VecDeque<Job<R>>,
    closed: bool,
    /// Executions in flight, callers' inline runs and workers' batches alike;
    /// never above the governor's `slots`.
    running: usize,
    /// Timestamps of the most recent submissions (newest at the back), the
    /// adaptive controller's arrival-rate window.
    arrivals: VecDeque<Instant>,
}

/// The execution slots, and the admission-controlled MPMC queue between
/// submitters and workers for what finds no slot.
///
/// Requests are `admit`ted: onto the caller's own thread under a [`Slot`], or
/// into the queue, which workers drain in batches via `next_batch`, a slot
/// per batch.  The governor enforces [`BatchConfig::queue_bound`] at
/// admission time and records every shed request in the shared
/// [`ServerStats`].  It is generic over what a job is answered with, so one
/// scheduling layer serves every [`Executor`].
pub(crate) struct QueueGovernor<R> {
    state: Mutex<GovernorState<R>>,
    /// Waited on by workers with nothing to drain or no slot to drain under
    /// (and, with a timeout, by one filling its batch); notified by every
    /// queued job, by a slot given back while jobs are queued, and by `close`.
    available: Condvar,
    config: BatchConfig,
    /// Most executions in flight at once.
    slots: usize,
}

impl<R> QueueGovernor<R> {
    /// Creates an open governor enforcing `config` over `slots` execution
    /// slots.
    pub(crate) fn new(config: BatchConfig, slots: usize) -> Self {
        QueueGovernor {
            state: Mutex::new(GovernorState {
                queue: VecDeque::new(),
                closed: false,
                running: 0,
                arrivals: VecDeque::new(),
            }),
            available: Condvar::new(),
            config,
            slots,
        }
    }

    /// Number of jobs currently queued (a point-in-time gauge).
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).queue.len()
    }

    /// Admits one request: the inline-or-queue decision, taken once, under
    /// the lock.  A caller that can run the request itself (`inline`) is
    /// granted an execution slot when nothing is queued — so it overtakes
    /// nobody — and a slot is free; it gets the [`Slot`] back and `job` is
    /// never called.  Otherwise `job()` is queued for the workers (`None`),
    /// shedding according to the overload policy when the queue is at its
    /// bound.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Overloaded`] when the job is rejected under
    /// [`OverloadPolicy::RejectNew`], and [`ServerError::ShuttingDown`] after
    /// [`close`](QueueGovernor::close).
    pub(crate) fn admit(
        &self,
        inline: bool,
        job: impl FnOnce() -> Job<R>,
        stats: &ServerStats,
    ) -> Result<Option<Slot<'_, R>>, ServerError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(ServerError::ShuttingDown);
        }
        if inline && state.queue.is_empty() && state.running < self.slots {
            state.running += 1;
            return Ok(Some(Slot { governor: self }));
        }
        let bound = self.config.queue_bound;
        if bound > 0 && state.queue.len() >= bound {
            match self.config.overload {
                OverloadPolicy::RejectNew => {
                    stats.inc(Metric::Shed);
                    return Err(ServerError::Overloaded);
                }
                OverloadPolicy::DropOldest => {
                    while state.queue.len() >= bound {
                        let victim = state.queue.pop_front().expect("len >= bound >= 1");
                        victim.refuse(ServerError::Overloaded);
                        stats.inc(Metric::Shed);
                    }
                }
            }
        }
        state.queue.push_back(job());
        if self.config.adaptive {
            if state.arrivals.len() == ARRIVAL_SAMPLES {
                state.arrivals.pop_front();
            }
            state.arrivals.push_back(Instant::now());
        }
        drop(state);
        self.available.notify_one();
        Ok(None)
    }

    /// Blocks until at least one job is queued and an execution slot is free
    /// (or the governor closes), then takes the slot and drains up to
    /// `max_batch` jobs under it.  With a nonzero `max_wait` the
    /// worker lingers for late arrivals until the batch fills or the window
    /// expires; in [`adaptive`](BatchConfig::adaptive) mode it lingers only
    /// when the recent arrival rate suggests the batch would actually fill,
    /// recording every decision in `stats`.
    ///
    /// Returns `None` only when the governor is closed *and* drained, so
    /// shutdown never discards admitted work.
    pub(crate) fn next_batch(&self, stats: &ServerStats) -> Option<DrainedBatch<'_, R>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        'refill: loop {
            // Inline runs may hold every slot: the queue then waits for one
            // of them to finish, so executions never exceed `slots`.
            while state.queue.is_empty() || state.running >= self.slots {
                if state.closed && state.queue.is_empty() {
                    return None;
                }
                state = self.available.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            let drained = Instant::now();
            let take = self.config.max_batch.min(state.queue.len());
            let mut batch: Vec<Job<R>> = Vec::with_capacity(take);
            admit_live(state.queue.drain(..take), drained, &mut batch, stats);
            if batch.is_empty() {
                // Everything drained had already expired; go back to waiting
                // rather than hand a worker an empty batch.
                continue 'refill;
            }
            // Held through the fill window: the batch runs as soon as it ends.
            state.running += 1;

            let mut linger = !self.config.max_wait.is_zero() && batch.len() < self.config.max_batch;
            if linger && self.config.adaptive {
                // Wait only when the batch is likely to fill: project the recent
                // arrival rate over the fill window and compare against the
                // number of free slots.
                let needed = self.config.max_batch - batch.len();
                let expected = expected_arrivals(&state.arrivals, drained, self.config.max_wait);
                linger = expected >= needed as f64;
                stats.inc(if linger { Metric::AdaptiveWaits } else { Metric::AdaptiveSkips });
            }
            let mut fill_wait = Duration::ZERO;
            if linger {
                let window_end = drained + self.config.max_wait;
                while batch.len() < self.config.max_batch && !state.closed {
                    // The window never outlives the most urgent job already
                    // in the batch: lingering past its deadline would turn
                    // the whole batch's answers into dead work.
                    let cap = batch
                        .iter()
                        .filter_map(|job| job.deadline)
                        .min()
                        .map_or(window_end, |d| window_end.min(d));
                    let Some(left) = cap.checked_duration_since(Instant::now()) else { break };
                    let (next, timeout) =
                        self.available.wait_timeout(state, left).unwrap_or_else(|e| e.into_inner());
                    state = next;
                    let take = (self.config.max_batch - batch.len()).min(state.queue.len());
                    let now = Instant::now();
                    admit_live(state.queue.drain(..take), now, &mut batch, stats);
                    if timeout.timed_out() {
                        break;
                    }
                }
                fill_wait = drained.elapsed();
            }
            return Some(DrainedBatch { jobs: batch, fill_wait, slot: Slot { governor: self } });
        }
    }

    /// Closes the governor: subsequent submissions fail, workers drain what
    /// is queued and then observe the end of the stream.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.available.notify_all();
    }
}

/// The deadline check every request passes as it is admitted to execution,
/// whether dequeued or run where it arrived: one whose deadline has already
/// passed is counted as an `expired=` shed and must be answered "deadline
/// exceeded" without executing (`false`); a live one that carries a deadline
/// records its remaining budget — the queue-pressure signal an operator tunes
/// deadlines against.
fn live_at(deadline: Option<Instant>, now: Instant, stats: &ServerStats) -> bool {
    match deadline {
        Some(deadline) if deadline <= now => {
            stats.record_expired_shed();
            false
        }
        Some(deadline) => {
            stats.remaining_budget_histogram().record(deadline.duration_since(now));
            true
        }
        None => true,
    }
}

/// Moves drained jobs into `batch`, shedding the ones that are not
/// [`live_at`] `now`.
fn admit_live<R>(
    jobs: impl Iterator<Item = Job<R>>,
    now: Instant,
    batch: &mut Vec<Job<R>>,
    stats: &ServerStats,
) {
    for job in jobs {
        // Counted (in `live_at`) before it is answered: whoever waits on the
        // answer may read the count next.
        if live_at(job.deadline, now, stats) {
            batch.push(job);
        } else {
            job.refuse(ServerError::DeadlineExceeded);
        }
    }
}

/// Runs one batch on the calling thread.  A panicking executor must not take
/// the thread with it — once every worker had gone that way, `submit` would
/// keep admitting jobs nobody answers, and a connection thread would drop its
/// client — so a panic is one `Panicked` answer per query, counted in
/// `errors=`.
fn run_guarded<E: Executor>(
    executor: &E,
    raws: &[&str],
    started: Instant,
    fill_wait: Duration,
) -> Vec<Result<E::Response, ServerError>> {
    catch_unwind(AssertUnwindSafe(|| executor.run_batch(raws, started, fill_wait))).unwrap_or_else(
        |_| {
            executor.stats().add(Metric::Errors, raws.len() as u64);
            vec![Err(ServerError::Panicked); raws.len()]
        },
    )
}

/// Projects the recent arrival rate over `window`: how many submissions the
/// fill window can be expected to see, judged from the arrivals inside
/// [`ARRIVAL_LOOKBACK`].  The rate is *intervals* over the span from the
/// oldest recent arrival to now — silence since the last arrival drags the
/// estimate down — and fewer than three recent arrivals estimate zero: one
/// stray pair of back-to-back queries on an idle server is no evidence of
/// traffic and must not buy a fill-window linger.
fn expected_arrivals(arrivals: &VecDeque<Instant>, now: Instant, window: Duration) -> f64 {
    let horizon = now.checked_sub(ARRIVAL_LOOKBACK);
    let recent: Vec<Instant> =
        arrivals.iter().copied().filter(|&t| horizon.is_none_or(|h| t >= h) && t <= now).collect();
    if recent.len() < 3 {
        return 0.0;
    }
    let span = now.duration_since(recent[0]).max(Duration::from_micros(1));
    let rate = (recent.len() - 1) as f64 / span.as_secs_f64();
    rate * window.as_secs_f64()
}

/// One canonical query of a batch and every position that spelled it:
/// "RUST  search" and "rust AND search" are one group.
pub(crate) struct Group {
    /// The parsed query (the first spelling's; all parse to the same tree).
    pub(crate) query: Query,
    /// Positions of the batch that asked it.
    pub(crate) positions: Vec<usize>,
}

/// One request of a batch: where its answer goes and what its `@` prefixes
/// asked for.
struct Position<R> {
    answer: Option<Result<R, ServerError>>,
    /// The client's trace id, zero when untraced.
    trace_id: u64,
    deadline: Option<Instant>,
}

/// The trace every response carries until the batch closes and stamps its
/// own: one value shared by all, so a response costs no allocation before it
/// has its real trace.
fn unfinished_trace() -> Arc<QueryTrace> {
    static UNFINISHED: OnceLock<Arc<QueryTrace>> = OnceLock::new();
    Arc::clone(UNFINISHED.get_or_init(Arc::default))
}

/// The part of serving a batch that does not depend on who answers it.
///
/// [`open`](BatchFrame::open) attributes everything between submission and
/// execution that is not the fill window — queueing plus the dispatch hop to
/// this worker — to the `queue_wait` stage, so the recorded stages tile the
/// measured latency without holes.  The `@<hex>` trace id and the `@d=<ms>`
/// budget ride along per position, outside the canonical grouping;
/// deadlines are anchored at the batch's earliest submission — conservative
/// for later arrivals, and it keeps the whole batch on one clock.  Parse
/// failures occupy their slot without failing the rest.
pub(crate) struct BatchFrame<'a, R> {
    stats: &'a ServerStats,
    started: Instant,
    /// The batch's stage record: one pass serves every query in it.
    pub(crate) trace: QueryTrace,
    /// When parsing ended (where the executor's own first span starts).
    pub(crate) parse_done: Instant,
    /// Positions by canonical query text; the executor takes them.
    pub(crate) groups: BTreeMap<String, Group>,
    positions: Vec<Position<R>>,
    /// Queries that parsed: only those count toward the batching stats —
    /// parse-error slots never shared any work.
    executed: u64,
    /// What responses carry as their trace until `close` knows the real one.
    pub(crate) unfinished: Arc<QueryTrace>,
}

impl<'a, R: Answer> BatchFrame<'a, R> {
    pub(crate) fn open(
        raws: &[&str],
        started: Instant,
        fill_wait: Duration,
        default_deadline: Option<Duration>,
        stats: &'a ServerStats,
    ) -> Self {
        let exec_started = Instant::now();
        let queue_wait = exec_started.saturating_duration_since(started).saturating_sub(fill_wait);
        let mut trace = QueryTrace::default();
        if !queue_wait.is_zero() {
            trace.record(Stage::QueueWait, queue_wait);
        }
        if !fill_wait.is_zero() {
            trace.record(Stage::BatchFill, fill_wait);
        }
        let mut positions = Vec::with_capacity(raws.len());
        let mut groups: BTreeMap<String, Group> = BTreeMap::new();
        let mut executed = 0u64;
        for (i, raw) in raws.iter().enumerate() {
            let (meta, query_text) = split_request_meta(raw);
            let mut position = Position {
                answer: None,
                trace_id: meta.trace_id,
                deadline: meta.deadline(started, default_deadline),
            };
            match Query::parse(query_text) {
                Ok(query) => {
                    groups
                        .entry(query.canonical())
                        .or_insert_with(|| Group { query, positions: Vec::new() })
                        .positions
                        .push(i);
                    executed += 1;
                }
                Err(e) => {
                    stats.inc(Metric::Errors);
                    position.answer = Some(Err(ServerError::Parse(e)));
                }
            }
            positions.push(position);
        }
        let parse_done = Instant::now();
        trace.record(Stage::Parse, parse_done.saturating_duration_since(exec_started));
        BatchFrame {
            stats,
            started,
            trace,
            parse_done,
            groups,
            positions,
            executed,
            unfinished: unfinished_trace(),
        }
    }

    /// Whether any request of the batch carried a trace id.
    pub(crate) fn traced(&self) -> bool {
        self.positions.iter().any(|position| position.trace_id != 0)
    }

    /// Deadline checkpoint, to run ahead of a cache probe: a hit cannot
    /// resurrect a dead query, and a dead query never influences what gets
    /// cached.  Keeps in `positions` those whose budget is not gone by `now`
    /// and answers the others.
    pub(crate) fn retain_live(
        &mut self,
        positions: &mut Vec<usize>,
        now: Instant,
        at: DeadlineStage,
    ) {
        positions.retain(|&i| {
            let live = self.positions[i].deadline.is_none_or(|d| d > now);
            if !live {
                self.expire(&[i], at);
            }
            live
        });
    }

    /// Answers `positions` with `DeadlineExceeded`, counted per position.
    pub(crate) fn expire(&mut self, positions: &[usize], at: DeadlineStage) {
        for &i in positions {
            self.stats.record_deadline_exceeded(at);
            self.positions[i].answer = Some(Err(ServerError::DeadlineExceeded));
        }
    }

    /// The deadline a group is worked on under: its most patient position's
    /// (any position that can still use the answer justifies finishing it),
    /// none when one was promised unlimited time.
    pub(crate) fn group_deadline<'p>(
        &self,
        positions: impl IntoIterator<Item = &'p usize>,
    ) -> Option<Instant> {
        let mut latest: Option<Instant> = None;
        for &i in positions {
            let deadline = self.positions[i].deadline?;
            latest = Some(latest.map_or(deadline, |l| l.max(deadline)));
        }
        latest
    }

    /// Answers every one of `positions` (one group's) with `result`; all but
    /// the first piggybacked on its work.
    pub(crate) fn answer(&mut self, positions: &[usize], result: Result<R, ServerError>) {
        if positions.len() > 1 {
            self.stats.add(Metric::DedupHits, (positions.len() - 1) as u64);
        }
        for &i in &positions[1..] {
            self.positions[i].answer = Some(result.clone());
        }
        self.positions[positions[0]].answer = Some(result);
    }

    /// Records the batch and its trace (once: the spans describe the shared
    /// pass), then stamps every answer with the latency the client saw and
    /// the trace — its own copy under the client's id when it sent one.
    pub(crate) fn close(self) -> Vec<Result<R, ServerError>> {
        self.stats.record_batch(self.executed);
        self.stats.record_trace(&self.trace);
        let latency = self.started.elapsed();
        let shared_trace = Arc::new(self.trace);
        self.positions
            .into_iter()
            .map(|Position { answer, trace_id, .. }| {
                let mut result = answer.expect("every position answered");
                if let Ok(response) = &mut result {
                    self.stats.record_query(latency);
                    let trace = if trace_id == 0 {
                        Arc::clone(&shared_trace)
                    } else {
                        let mut own = (*shared_trace).clone();
                        own.set_id(trace_id);
                        Arc::new(own)
                    };
                    response.stamp(latency, trace);
                }
                result
            })
            .collect()
    }
}

/// The one way into an [`Executor`]: at most `executor.workers()` executions
/// at once, a request run on the thread that brought it while one of those
/// slots is free, and a fixed pool of worker threads draining what had to
/// queue — so queries arriving on more connections than there are slots
/// coalesce into batches, and a batch shares its work.
pub struct Pool<E: Executor> {
    executor: Arc<E>,
    governor: Arc<QueueGovernor<E::Response>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Queries executed, inline and from the queue alike.
    served: Arc<AtomicU64>,
}

impl<E: Executor> Pool<E> {
    /// Spawns `executor.workers()` workers behind a `QueueGovernor` with as
    /// many execution slots, configured from `executor.batch_config()`.
    #[must_use]
    pub fn start(executor: Arc<E>) -> Self {
        let governor = Arc::new(QueueGovernor::new(executor.batch_config(), executor.workers()));
        let served = Arc::new(AtomicU64::new(0));
        let handles = (0..executor.workers())
            .map(|_| {
                let governor = Arc::clone(&governor);
                let executor = Arc::clone(&executor);
                let served = Arc::clone(&served);
                std::thread::spawn(move || {
                    while let Some(batch) = governor.next_batch(executor.stats()) {
                        let DrainedBatch { jobs, fill_wait, slot } = batch;
                        // Time the batch from its earliest submission, so
                        // queueing delay and the fill window both land in
                        // the recorded latency (and in the trace, as the
                        // queue_wait and batch_fill stages).
                        let started = jobs
                            .iter()
                            .map(|job| job.submitted)
                            .min()
                            .expect("batches are never empty");
                        let raws: Vec<&str> = jobs.iter().map(|job| job.raw.as_str()).collect();
                        let responses = run_guarded(&*executor, &raws, started, fill_wait);
                        // Given back before anyone is answered: a client
                        // that sends its next request the moment it reads
                        // this answer finds the slot free.
                        drop(slot);
                        served.fetch_add(jobs.len() as u64, Ordering::Relaxed);
                        for (job, response) in jobs.iter().zip(responses) {
                            // A client that gave up is not an error.
                            let _ = job.respond.send(response);
                        }
                    }
                })
            })
            .collect();
        Pool { executor, governor, handles, served }
    }

    /// Number of worker threads, which is also the number of execution slots.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// Jobs currently waiting in the admission queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.governor.depth()
    }

    /// When `raw` was submitted (now) and the deadline it carries: parsed
    /// here so the governor can shed the request without re-parsing the line.
    fn submission(&self, raw: &str) -> (Instant, Option<Instant>) {
        let submitted = Instant::now();
        let deadline =
            split_request_meta(raw).0.deadline(submitted, self.executor.default_deadline());
        (submitted, deadline)
    }

    /// Enqueues a query for the workers; the result is collected through the
    /// returned handle.
    ///
    /// # Errors
    ///
    /// Fails with [`ServerError::Overloaded`] when admission control rejects
    /// the request, and [`ServerError::ShuttingDown`] when the pool is
    /// stopping.
    pub fn submit(&self, raw: impl Into<String>) -> Result<Pending<E::Response>, ServerError> {
        let raw = raw.into();
        let (submitted, deadline) = self.submission(&raw);
        let (job, pending) = Job::new(raw, submitted, deadline);
        self.governor.admit(false, || job, self.executor.stats())?;
        Ok(pending)
    }

    /// Answers one query, waiting for the answer: the closed-loop client
    /// path.  Granted an execution slot — nothing queued, fewer than
    /// `workers` executions in flight — the query runs here, on the caller's
    /// thread, as a batch of one under the admission accounting a dequeued
    /// job gets; otherwise it queues behind what is already there and this
    /// thread waits for a worker.
    ///
    /// # Errors
    ///
    /// Propagates admission and execution errors.
    pub fn execute(&self, raw: &str) -> Result<E::Response, ServerError> {
        let stats = self.executor.stats();
        let (submitted, deadline) = self.submission(raw);
        let mut pending = None;
        let queued = || {
            let (job, waiter) = Job::new(raw.to_owned(), submitted, deadline);
            pending = Some(waiter);
            job
        };
        let Some(_slot) = self.governor.admit(true, queued, stats)? else {
            return pending.expect("no slot granted: the job was queued").wait();
        };
        // Admitted the instant it was submitted.
        if !live_at(deadline, submitted, stats) {
            return Err(ServerError::DeadlineExceeded);
        }
        stats.inc(Metric::Inline);
        self.served.fetch_add(1, Ordering::Relaxed);
        run_guarded(&*self.executor, &[raw], submitted, Duration::ZERO)
            .pop()
            .expect("one query in, one response out")
    }

    /// Drains the queue and joins every worker, returning the total number of
    /// queries executed, on callers' threads and on the workers'.
    pub fn shutdown(mut self) -> u64 {
        self.stop();
        self.served.load(Ordering::Relaxed)
    }

    fn stop(&mut self) {
        self.governor.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<E: Executor> Drop for Pool<E> {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(raw: &str) -> (Job<()>, Pending<()>) {
        job_with_deadline(raw, None)
    }

    fn job_with_deadline(raw: &str, deadline: Option<Instant>) -> (Job<()>, Pending<()>) {
        Job::new(raw.to_owned(), Instant::now(), deadline)
    }

    /// A governor with slots to spare: these tests drain by hand.
    fn governor(config: BatchConfig) -> (QueueGovernor<()>, ServerStats) {
        (QueueGovernor::new(config, usize::MAX), ServerStats::new())
    }

    impl<R> QueueGovernor<R> {
        /// Queues `job`, as `Pool::submit` does.
        fn submit(&self, job: Job<R>, stats: &ServerStats) -> Result<(), ServerError> {
            self.admit(false, || job, stats).map(|_| ())
        }
    }

    #[test]
    fn unbounded_governor_admits_everything() {
        let (governor, stats) = governor(BatchConfig::default());
        for i in 0..100 {
            let (j, _pending) = job(&format!("q{i}"));
            governor.submit(j, &stats).unwrap();
        }
        assert_eq!(governor.depth(), 100);
        assert_eq!(stats.get(Metric::Shed), 0);
    }

    #[test]
    fn reject_new_sheds_the_submission() {
        let (governor, stats) = governor(BatchConfig { queue_bound: 2, ..BatchConfig::default() });
        let (a, _pa) = job("a");
        let (b, _pb) = job("b");
        let (c, _pc) = job("c");
        governor.submit(a, &stats).unwrap();
        governor.submit(b, &stats).unwrap();
        assert_eq!(governor.submit(c, &stats).unwrap_err(), ServerError::Overloaded);
        assert_eq!(governor.depth(), 2);
        assert_eq!(stats.get(Metric::Shed), 1);
    }

    #[test]
    fn drop_oldest_sheds_the_head_and_answers_its_waiter() {
        let (governor, stats) = governor(BatchConfig {
            queue_bound: 2,
            overload: OverloadPolicy::DropOldest,
            ..BatchConfig::default()
        });
        let (a, pa) = job("a");
        let (b, _pb) = job("b");
        let (c, _pc) = job("c");
        governor.submit(a, &stats).unwrap();
        governor.submit(b, &stats).unwrap();
        governor.submit(c, &stats).unwrap();
        assert_eq!(governor.depth(), 2);
        assert_eq!(stats.get(Metric::Shed), 1);
        // The dropped job's waiter got the overload answer.
        assert_eq!(pa.wait().unwrap_err(), ServerError::Overloaded);
        // The surviving queue is b, c.
        let batch = governor.next_batch(&stats).unwrap();
        let raws: Vec<&str> = batch.jobs.iter().map(|j| j.raw.as_str()).collect();
        assert_eq!(raws, ["b", "c"]);
    }

    #[test]
    fn batches_drain_up_to_max_batch() {
        let (governor, stats) = governor(BatchConfig { max_batch: 3, ..BatchConfig::default() });
        let mut pendings = Vec::new();
        for i in 0..5 {
            let (j, p) = job(&format!("q{i}"));
            governor.submit(j, &stats).unwrap();
            pendings.push(p);
        }
        let first = governor.next_batch(&stats).unwrap();
        assert_eq!(first.jobs.len(), 3);
        // No fill window armed: the drain reports no batch-fill linger.
        assert_eq!(first.fill_wait, Duration::ZERO);
        assert_eq!(governor.next_batch(&stats).unwrap().jobs.len(), 2);
        governor.close();
        assert!(governor.next_batch(&stats).is_none());
    }

    #[test]
    fn closed_governor_rejects_submissions_but_drains() {
        let (governor, stats) = governor(BatchConfig::default());
        let (a, _pa) = job("a");
        governor.submit(a, &stats).unwrap();
        governor.close();
        let (b, _pb) = job("b");
        assert_eq!(governor.submit(b, &stats).unwrap_err(), ServerError::ShuttingDown);
        // Admitted work survives the close.
        assert_eq!(governor.next_batch(&stats).unwrap().jobs.len(), 1);
        assert!(governor.next_batch(&stats).is_none());
    }

    #[test]
    fn max_wait_fills_a_batch_from_late_arrivals() {
        let (governor, stats) = governor(BatchConfig {
            max_batch: 2,
            max_wait: Duration::from_millis(200),
            ..BatchConfig::default()
        });
        let (a, _pa) = job("a");
        governor.submit(a, &stats).unwrap();
        let second = std::thread::spawn({
            let (b, pb) = job("b");
            move || (b, pb)
        });
        let (b, _pb) = second.join().unwrap();
        // Submit the second job from another thread shortly after the worker
        // starts waiting.
        std::thread::scope(|scope| {
            let submitter = scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                governor.submit(b, &stats).unwrap();
            });
            let batch = governor.next_batch(&stats).unwrap();
            assert_eq!(batch.jobs.len(), 2, "late arrival joined the waiting batch");
            assert!(batch.fill_wait > Duration::ZERO, "linger time was recorded");
            submitter.join().unwrap();
        });
    }

    #[test]
    fn adaptive_governor_skips_the_window_when_idle() {
        let (governor, stats) = governor(BatchConfig {
            max_batch: 32,
            max_wait: Duration::from_millis(250),
            adaptive: true,
            ..BatchConfig::default()
        });
        // A single queued job with no recent arrival history: the controller
        // must drain immediately instead of sitting out the fill window.
        let (a, _pa) = job("a");
        governor.submit(a, &stats).unwrap();
        let started = Instant::now();
        let batch = governor.next_batch(&stats).unwrap();
        assert_eq!(batch.jobs.len(), 1);
        assert!(
            started.elapsed() < Duration::from_millis(200),
            "idle adaptive drain waited {:?}",
            started.elapsed()
        );
        assert_eq!(stats.get(Metric::AdaptiveSkips), 1);
        assert_eq!(stats.get(Metric::AdaptiveWaits), 0);
    }

    #[test]
    fn adaptive_governor_ignores_a_lone_pair_of_arrivals() {
        let (governor, stats) = governor(BatchConfig {
            max_batch: 32,
            max_wait: Duration::from_millis(250),
            adaptive: true,
            ..BatchConfig::default()
        });
        // Two back-to-back queries on an otherwise idle server: too little
        // evidence of traffic to pay the fill-window linger for.
        for raw in ["a", "b"] {
            let (j, _p) = job(raw);
            governor.submit(j, &stats).unwrap();
        }
        let started = Instant::now();
        let batch = governor.next_batch(&stats).unwrap();
        assert_eq!(batch.jobs.len(), 2);
        assert!(
            started.elapsed() < Duration::from_millis(200),
            "a lone pair bought a linger: {:?}",
            started.elapsed()
        );
        assert_eq!(stats.get(Metric::AdaptiveSkips), 1);
    }

    #[test]
    fn adaptive_governor_waits_when_arrivals_suggest_a_fill() {
        let (governor, stats) = governor(BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(20),
            adaptive: true,
            ..BatchConfig::default()
        });
        // A burst of arrivals: the measured rate projects far more than the
        // free slots over the window, so the worker lingers.
        let mut pendings = Vec::new();
        for i in 0..40 {
            let (j, p) = job(&format!("q{i}"));
            governor.submit(j, &stats).unwrap();
            pendings.push(p);
        }
        let batch = governor.next_batch(&stats).unwrap();
        // All 40 drain at once (< max_batch), and the decision to linger for
        // more was taken and counted.
        assert_eq!(batch.jobs.len(), 40);
        assert_eq!(stats.get(Metric::AdaptiveWaits), 1);
        assert_eq!(stats.get(Metric::AdaptiveSkips), 0);
    }

    #[test]
    fn fixed_window_governors_never_record_adaptive_decisions() {
        let (governor, stats) = governor(BatchConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(5),
            ..BatchConfig::default()
        });
        let (a, _pa) = job("a");
        governor.submit(a, &stats).unwrap();
        let _ = governor.next_batch(&stats).unwrap();
        assert_eq!(stats.get(Metric::AdaptiveWaits) + stats.get(Metric::AdaptiveSkips), 0);
    }

    #[test]
    fn expired_jobs_are_shed_at_dequeue_with_a_distinct_count() {
        let (governor, stats) = governor(BatchConfig::default());
        let (dead, dead_pending) = job_with_deadline("dead", Some(Instant::now()));
        let (live, _live_pending) =
            job_with_deadline("live", Some(Instant::now() + Duration::from_secs(60)));
        let (plain, _plain_pending) = job("plain");
        governor.submit(dead, &stats).unwrap();
        governor.submit(live, &stats).unwrap();
        governor.submit(plain, &stats).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        let batch = governor.next_batch(&stats).unwrap();
        let raws: Vec<&str> = batch.jobs.iter().map(|j| j.raw.as_str()).collect();
        assert_eq!(raws, ["live", "plain"]);
        // The expired job's waiter got a deadline answer, not a hang, and
        // the shed was attributed to expiry.
        assert_eq!(dead_pending.wait().unwrap_err(), ServerError::DeadlineExceeded);
        assert_eq!(stats.deadline_exceeded(DeadlineStage::Queue), 1);
        assert_eq!(stats.get(Metric::Shed), 1);
    }

    #[test]
    fn all_expired_batch_keeps_the_worker_waiting() {
        let (governor, stats) = governor(BatchConfig::default());
        let (dead, _p) = job_with_deadline("dead", Some(Instant::now()));
        governor.submit(dead, &stats).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        governor.close();
        // The only queued job expires at drain: the worker sees the closed
        // end of the stream, never an empty batch.
        assert!(governor.next_batch(&stats).is_none());
        assert_eq!(stats.deadline_exceeded(DeadlineStage::Queue), 1);
    }

    #[test]
    fn fill_window_never_lingers_past_the_earliest_deadline() {
        let (governor, stats) = governor(BatchConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(400),
            ..BatchConfig::default()
        });
        // One job due in 30ms: the 400ms fill window must be cut short.
        let (urgent, _p) =
            job_with_deadline("urgent", Some(Instant::now() + Duration::from_millis(30)));
        governor.submit(urgent, &stats).unwrap();
        let started = Instant::now();
        let batch = governor.next_batch(&stats).unwrap();
        assert_eq!(batch.jobs.len(), 1);
        assert!(
            started.elapsed() < Duration::from_millis(200),
            "linger outlived the deadline: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn overload_policy_parses_and_renders() {
        assert_eq!("reject".parse::<OverloadPolicy>().unwrap(), OverloadPolicy::RejectNew);
        assert_eq!("drop-oldest".parse::<OverloadPolicy>().unwrap(), OverloadPolicy::DropOldest);
        assert!("sideways".parse::<OverloadPolicy>().is_err());
        assert_eq!(OverloadPolicy::DropOldest.to_string(), "drop-oldest");
    }

    /// An executor that does what `inner` does, except that a batch holding
    /// the query `wedge` first reports in and waits to be released, and one
    /// holding `explode` panics.  It keeps the most batches it ever ran at
    /// once and the order its queries finished in.
    struct Scripted<E> {
        inner: Arc<E>,
        entered: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
        in_flight: AtomicU64,
        high_water: AtomicU64,
        finished: Mutex<Vec<String>>,
    }

    impl<E: Executor> Executor for Scripted<E> {
        type Response = E::Response;

        fn stats(&self) -> &ServerStats {
            self.inner.stats()
        }

        fn batch_config(&self) -> BatchConfig {
            self.inner.batch_config()
        }

        fn workers(&self) -> usize {
            self.inner.workers()
        }

        fn default_deadline(&self) -> Option<Duration> {
            self.inner.default_deadline()
        }

        fn run_batch(
            &self,
            raws: &[&str],
            started: Instant,
            fill_wait: Duration,
        ) -> Vec<Result<E::Response, ServerError>> {
            assert!(!raws.contains(&"explode"), "scripted panic");
            let running = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.high_water.fetch_max(running, Ordering::SeqCst);
            if raws.contains(&"wedge") {
                self.entered.lock().unwrap().send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
            }
            let responses = self.inner.run_batch(raws, started, fill_wait);
            self.finished.lock().unwrap().extend(raws.iter().map(|raw| (*raw).to_owned()));
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            responses
        }

        fn stats_answer(&self) -> String {
            self.inner.stats_answer()
        }

        fn reload_answer(&self) -> String {
            self.inner.reload_answer()
        }
    }

    /// A scripted pool over `inner`, the receiver its wedged workers report
    /// on, and the sender that releases one of them per message.
    type ScriptedPool<E> = (Pool<Scripted<E>>, mpsc::Receiver<()>, mpsc::Sender<()>);

    fn scripted<E: Executor>(inner: Arc<E>) -> ScriptedPool<E> {
        let (entered, entered_rx) = mpsc::channel();
        let (release_tx, release) = mpsc::channel();
        let executor = Scripted {
            inner,
            entered: Mutex::new(entered),
            release: Mutex::new(release),
            in_flight: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            finished: Mutex::new(Vec::new()),
        };
        (Pool::start(Arc::new(executor)), entered_rx, release_tx)
    }

    fn slots_held<E: Executor>(pool: &Pool<E>) -> usize {
        pool.governor.state.lock().unwrap().running
    }

    /// Yields until `depth` jobs are queued: the only way a test learns that
    /// another thread's `execute` found no slot.
    fn await_depth<E: Executor>(pool: &Pool<E>, depth: usize) {
        while pool.queue_depth() < depth {
            std::thread::yield_now();
        }
    }

    /// What a [`Pool`] promises whatever it runs; `make(workers, batch)`
    /// builds a fresh executor that answers `rust` and `search`.
    fn pool_contract<E: Executor>(make: impl Fn(usize, BatchConfig) -> Arc<E>) {
        // A request runs where it arrives while a slot is free, queues when
        // none is, and is then neither started early nor overtaken.
        let workers = 2;
        // One job per batch, so that queued jobs finish one after another.
        let inner = make(workers, BatchConfig { max_batch: 1, ..BatchConfig::default() });
        let (pool, entered, release) = scripted(Arc::clone(&inner));
        std::thread::scope(|scope| {
            let wedged: Vec<_> =
                (0..workers).map(|_| scope.spawn(|| pool.execute("wedge"))).collect();
            for _ in 0..workers {
                entered.recv().unwrap();
            }
            assert_eq!(inner.stats().get(Metric::Inline), workers as u64);
            assert_eq!(slots_held(&pool), workers);
            // Every slot is held inline: a further `execute` queues, a
            // submitted job behind it, an `execute` issued later behind both.
            let third = scope.spawn(|| pool.execute("rust"));
            await_depth(&pool, 1);
            let fourth = pool.submit("search").unwrap();
            let fifth = scope.spawn(|| pool.execute("rust search"));
            await_depth(&pool, 3);
            // No worker started any of them, though both are idle.
            assert_eq!(slots_held(&pool), workers);
            assert_eq!(pool.executor.in_flight.load(Ordering::SeqCst), workers as u64);
            assert!(pool.executor.finished.lock().unwrap().is_empty());
            assert!(!third.is_finished());
            // One slot comes back: the queue drains through it, in order.
            release.send(()).unwrap();
            assert!(third.join().unwrap().is_ok());
            assert!(fourth.wait().is_ok());
            assert!(fifth.join().unwrap().is_ok());
            let finished = pool.executor.finished.lock().unwrap().clone();
            assert_eq!(finished, ["wedge", "rust", "search", "rust search"]);
            release.send(()).unwrap();
            for wedge in wedged {
                assert!(wedge.join().unwrap().is_ok());
            }
        });
        assert_eq!(inner.stats().get(Metric::Inline), workers as u64, "the rest queued");
        // With the slots back, the next request runs where it arrives again.
        assert!(pool.execute("rust").is_ok());
        assert_eq!(inner.stats().get(Metric::Inline), workers as u64 + 1);
        assert_eq!(pool.executor.high_water.load(Ordering::SeqCst), workers as u64);
        assert_eq!(pool.shutdown(), 6, "three inline and three queued");

        // A full bounded queue sheds, under either policy, and what was
        // admitted is served.
        for overload in [OverloadPolicy::RejectNew, OverloadPolicy::DropOldest] {
            let batch =
                BatchConfig { max_batch: 1, queue_bound: 1, overload, ..BatchConfig::default() };
            let inner = make(1, batch);
            let (pool, entered, release) = scripted(Arc::clone(&inner));
            let wedged = pool.submit("wedge").unwrap();
            entered.recv().unwrap();
            // The one worker is busy and the queue empty: one job fits.
            let first = pool.submit("rust").unwrap();
            assert_eq!(pool.queue_depth(), 1);
            let second = pool.submit("search");
            release.send(()).unwrap();
            match overload {
                OverloadPolicy::RejectNew => {
                    assert_eq!(second.err(), Some(ServerError::Overloaded));
                    assert!(first.wait().is_ok());
                }
                OverloadPolicy::DropOldest => {
                    assert_eq!(first.wait().err(), Some(ServerError::Overloaded));
                    assert!(second.unwrap().wait().is_ok());
                }
            }
            assert!(wedged.wait().is_ok());
            assert_eq!(inner.stats().get(Metric::Shed), 1, "{overload}");
            assert_eq!(pool.shutdown(), 2, "{overload}: the wedge and the job that stayed");
        }

        // An expired request is answered at admission — here on an idle
        // pool, so under a slot on this thread — without executing.
        let inner = make(1, BatchConfig::default());
        let (pool, entered, release) = scripted(Arc::clone(&inner));
        assert_eq!(pool.execute("@d=0 rust").err(), Some(ServerError::DeadlineExceeded));
        assert_eq!(inner.stats().deadline_exceeded(DeadlineStage::Queue), 1);
        assert_eq!(inner.stats().get(Metric::Batches), 0);
        assert_eq!(inner.stats().get(Metric::Errors), 0);
        assert_eq!(inner.stats().get(Metric::Inline), 0);
        assert!(pool.executor.finished.lock().unwrap().is_empty());
        assert_eq!(slots_held(&pool), 0);

        // Closing stops admission, not service: what was admitted before is
        // drained, and `shutdown` reports all of it.
        let wedged = pool.submit("wedge").unwrap();
        entered.recv().unwrap();
        let queued: Vec<_> = ["rust", "search", "rust"].map(|raw| pool.submit(raw).unwrap()).into();
        pool.governor.close();
        assert_eq!(pool.submit("rust").err(), Some(ServerError::ShuttingDown));
        assert_eq!(pool.execute("rust").err(), Some(ServerError::ShuttingDown));
        release.send(()).unwrap();
        assert!(wedged.wait().is_ok());
        for pending in queued {
            assert!(pending.wait().is_ok());
        }
        assert_eq!(pool.shutdown(), 4);

        // A batch whose executor panics is answered, counted as an error,
        // and costs no thread.
        for workers in [1, 2] {
            // One job per batch, so that two wedges take two threads.
            let inner = make(workers, BatchConfig { max_batch: 1, ..BatchConfig::default() });
            let (pool, entered, release) = scripted(Arc::clone(&inner));
            for _ in 0..=workers {
                assert_eq!(pool.execute("explode").err(), Some(ServerError::Panicked));
                assert_eq!(slots_held(&pool), 0);
            }
            assert_eq!(inner.stats().get(Metric::Errors), workers as u64 + 1);
            // Each found the slot the one before it gave back.
            assert_eq!(inner.stats().get(Metric::Inline), workers as u64 + 1);
            // Every worker is still there to be wedged at the same time.
            let wedged: Vec<_> = (0..workers).map(|_| pool.submit("wedge").unwrap()).collect();
            for _ in 0..workers {
                entered.recv().unwrap();
            }
            // Released all at once: which worker takes which release is not
            // the order the jobs were submitted in.
            for _ in 0..workers {
                release.send(()).unwrap();
            }
            for pending in wedged {
                assert!(pending.wait().is_ok());
            }
            assert!(pool.execute("rust").is_ok());
            assert_eq!(pool.shutdown(), 2 * workers as u64 + 2);
        }
    }

    fn small_engine(config: crate::engine::EngineConfig) -> Arc<crate::engine::QueryEngine> {
        let mut docs = dsearch_index::DocTable::new();
        let mut index = dsearch_index::InMemoryIndex::new();
        for (path, words) in [("a.txt", ["rust", "index"]), ("b.txt", ["rust", "search"])] {
            let id = docs.insert(path);
            index.insert_file(id, words.into_iter().map(dsearch_text::Term::from));
        }
        let snapshot = crate::snapshot::IndexSnapshot::from_index(index, docs, 1);
        crate::engine::QueryEngine::new(snapshot, config).unwrap()
    }

    #[test]
    fn pool_contract_holds_for_the_engine() {
        pool_contract(|workers, batch| {
            small_engine(crate::engine::EngineConfig { workers, batch, ..Default::default() })
        });
    }

    #[test]
    fn pool_contract_holds_for_the_router() {
        use crate::route::{LocalShards, Router, RouterConfig};
        pool_contract(|workers, batch| {
            let shard = LocalShards::new(small_engine(crate::engine::EngineConfig::default()));
            Router::new(
                vec![Box::new(shard)],
                RouterConfig { workers, batch, ..Default::default() },
            )
            .unwrap()
        });
    }
}
