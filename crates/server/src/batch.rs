//! The serving skeleton `dsearch serve` and `dsearch route` share.
//!
//! * [`Executor`] — what the skeleton needs of the thing that answers
//!   queries; [`QueryEngine`](crate::engine::QueryEngine) and
//!   [`Router`](crate::route::Router) implement it.
//! * `QueueGovernor` — the execution slots and the admission-controlled
//!   queue behind them.  At most [`Executor::workers`] executions are in
//!   flight; a request that arrives while a slot is free and nothing is
//!   queued is granted the slot and never enters the queue.  A submission
//!   past the configurable depth bound is rejected, counted in
//!   [`ServerStats`] and answered with [`ServerError::Overloaded`].  A slot
//!   given back while jobs are queued passes to the caller whose job heads
//!   the queue, and that caller drains up to [`BatchConfig::max_batch`]
//!   jobs, its own first, in one go.
//! * [`Pool`] — [`Pool::execute`], the one way in: every query runs on the
//!   thread of a caller, its own or that of the caller whose batch took it
//!   (flat combining over the queue, Hendler et al., SPAA 2010).  The pool
//!   spawns no threads.
//! * `BatchFrame` — what every `run_batch` opens and closes with, so that
//!   an executor writes only what is its own: cache probe and evaluation, or
//!   cache probe, scatter and merge.
//!
//! The scheduler favours latency when idle: a lone query is a batch of one
//! on the thread it arrived on, with no hand-off, while a backlog — requests
//! beyond the slots — drains in `max_batch`-sized groups, which is where
//! dedup pays off.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use dsearch_obs::{QueryTrace, Stage};
use dsearch_query::Query;

use crate::engine::ServerError;
use crate::protocol::split_request_meta;
use crate::stats::{DeadlineStage, Metric, ServerStats};

/// Batching and admission-control parameters.  A queued caller handed a
/// slot drains what is queued, up to `max_batch`, at once: batches form from
/// backlog alone, and an idle server adds no latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Most jobs one batch drains (must be at least 1).
    pub max_batch: usize,
    /// Queue-depth bound past which a new request is rejected; `0` disables
    /// admission control (unbounded queue).
    pub queue_bound: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch: 32, queue_bound: 0 }
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

    /// Executions the pool lets run at once (its execution slots), each on
    /// the thread of the caller that holds the slot.
    fn workers(&self) -> usize;

    /// Deadline applied to queries that carry no `@d=<ms>` budget.
    fn default_deadline(&self) -> Option<Duration>;

    /// Answers a drained batch, one result per raw line in order.  `started`
    /// is when the batch's oldest job was submitted.
    fn run_batch(
        &self,
        raws: &[&str],
        started: Instant,
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

/// How a queued caller's wait ends: with its answer — from the batch of the
/// caller that drained its job, or from the drain that shed it — or with the
/// execution slot, to lead a batch of its own.
enum Turn<R> {
    Answered(Result<R, ServerError>),
    Lead,
}

/// A queued query plus the channel its caller is woken on.
pub(crate) struct Job<R> {
    raw: String,
    wake: mpsc::Sender<Turn<R>>,
    /// When the job entered the queue; served queries are timed from here so
    /// queueing delay shows up in the latency percentiles.
    submitted: Instant,
    /// Absolute deadline from the request's `@d=<ms>` prefix (or the
    /// executor's default), anchored at submission.  The governor sheds
    /// already-expired jobs at dequeue time — executing dead work is strictly
    /// worse than dropping it.
    deadline: Option<Instant>,
}

/// One of the governor's execution slots, held for as long as an execution is
/// in flight and given back on drop, whichever way the execution ends.
pub(crate) struct Slot<'a, R> {
    governor: &'a QueueGovernor<R>,
}

impl<R> Drop for Slot<'_, R> {
    /// Given back while jobs are queued, the slot is not freed but passes to
    /// the caller whose job heads the queue, and only that caller is woken:
    /// a request arriving in between finds no slot and queues behind it.
    fn drop(&mut self) {
        let mut state = self.governor.state.lock().unwrap_or_else(|e| e.into_inner());
        match state.queue.pop_front() {
            Some(head) => {
                drop(state);
                // Its caller sleeps in `execute` until woken, so it is there
                // to take the slot.
                let _ = head.wake.send(Turn::Lead);
            }
            None => state.running -= 1,
        }
    }
}

struct GovernorState<R> {
    queue: VecDeque<Job<R>>,
    closed: bool,
    /// Executions in flight; never above the governor's `slots`, and equal
    /// to it whenever a job is queued.
    running: usize,
}

/// The execution slots, and the admission-controlled FIFO queue of the
/// requests that found none.
///
/// Requests are `admit`ted: onto the caller's own thread under a [`Slot`], or
/// into the queue, whose head's caller is handed the next slot given back and
/// then `drain`s the jobs behind its own.  The governor enforces
/// [`BatchConfig::queue_bound`] at admission time and records every shed
/// request in the shared [`ServerStats`].  It is generic over what a job is
/// answered with, so one scheduling layer serves every [`Executor`].
pub(crate) struct QueueGovernor<R> {
    state: Mutex<GovernorState<R>>,
    config: BatchConfig,
    /// Most executions in flight at once.
    slots: usize,
}

impl<R> QueueGovernor<R> {
    /// Creates an open governor enforcing `config` over `slots` execution
    /// slots.
    pub(crate) fn new(config: BatchConfig, slots: usize) -> Self {
        QueueGovernor {
            state: Mutex::new(GovernorState { queue: VecDeque::new(), closed: false, running: 0 }),
            config,
            slots,
        }
    }

    /// Number of jobs currently queued (a point-in-time gauge).
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).queue.len()
    }

    /// Admits one request: the inline-or-queue decision, taken once, under
    /// the lock.  The caller is granted an execution slot when nothing is
    /// queued — so it overtakes nobody — and a slot is free; it gets the
    /// [`Slot`] back and `job` is never called.  Otherwise `job()` is queued
    /// (`None`), unless the queue is at its bound.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Overloaded`] when the queue is at its bound,
    /// and [`ServerError::ShuttingDown`] after
    /// [`close`](QueueGovernor::close).
    pub(crate) fn admit(
        &self,
        job: impl FnOnce() -> Job<R>,
        stats: &ServerStats,
    ) -> Result<Option<Slot<'_, R>>, ServerError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(ServerError::ShuttingDown);
        }
        if state.queue.is_empty() && state.running < self.slots {
            state.running += 1;
            return Ok(Some(Slot { governor: self }));
        }
        let bound = self.config.queue_bound;
        if bound > 0 && state.queue.len() >= bound {
            stats.inc(Metric::Shed);
            return Err(ServerError::Overloaded);
        }
        state.queue.push_back(job());
        Ok(None)
    }

    /// Takes the jobs queued behind a batch's leader, as many as fit beside
    /// its own job under [`BatchConfig::max_batch`] — whatever is queued,
    /// without waiting for more.  An expired job is answered here instead.
    pub(crate) fn drain(&self, now: Instant, stats: &ServerStats) -> Vec<Job<R>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let take = (self.config.max_batch - 1).min(state.queue.len());
        let mut batch = Vec::with_capacity(take);
        for job in state.queue.drain(..take) {
            // Counted (in `live_at`) before it is answered: whoever waits on
            // the answer may read the count next.
            if live_at(job.deadline, now, stats) {
                batch.push(job);
            } else {
                let _ = job.wake.send(Turn::Answered(Err(ServerError::DeadlineExceeded)));
            }
        }
        batch
    }

    /// Closes the governor: subsequent submissions fail, and what is queued
    /// is still served as slots come back.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
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

/// Runs one batch on the calling thread.  A panicking executor must not take
/// the thread with it — a connection thread would drop its client, and a
/// batch's leader would leave the other callers in it unanswered — so a panic
/// is one `Panicked` answer per query, counted in `errors=`.
fn run_guarded<E: Executor>(
    executor: &E,
    raws: &[&str],
    started: Instant,
) -> Vec<Result<E::Response, ServerError>> {
    catch_unwind(AssertUnwindSafe(|| executor.run_batch(raws, started))).unwrap_or_else(|_| {
        executor.stats().add(Metric::Errors, raws.len() as u64);
        vec![Err(ServerError::Panicked); raws.len()]
    })
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
/// execution — queueing plus the wake-up of the caller that leads the batch —
/// to the `queue_wait` stage, so the recorded stages tile the measured
/// latency without holes.  The `@<hex>` trace id and the `@d=<ms>` budget
/// ride along per position, outside the canonical grouping; deadlines are
/// anchored at the batch's earliest submission — conservative for later
/// arrivals, and it keeps the whole batch on one clock.  Parse failures
/// occupy their slot without failing the rest.
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
        default_deadline: Option<Duration>,
        stats: &'a ServerStats,
    ) -> Self {
        let exec_started = Instant::now();
        let queue_wait = exec_started.saturating_duration_since(started);
        let mut trace = QueryTrace::default();
        if !queue_wait.is_zero() {
            trace.record(Stage::QueueWait, queue_wait);
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
/// at once, each on the thread of a caller of [`execute`](Pool::execute).  A
/// request runs on the thread that brought it while one of those slots is
/// free; beyond them it queues, and a slot given back passes to the caller
/// whose job heads the queue, which runs the backlog behind it as one batch —
/// so queries arriving on more connections than there are slots coalesce
/// into batches, and a batch shares its work.  The pool spawns no threads.
pub struct Pool<E: Executor> {
    executor: Arc<E>,
    governor: QueueGovernor<E::Response>,
    /// Queries executed, inline and from the queue alike.
    served: AtomicU64,
}

impl<E: Executor> Pool<E> {
    /// A `QueueGovernor` with `executor.workers()` execution slots,
    /// configured from `executor.batch_config()`, in front of `executor`.
    #[must_use]
    pub fn start(executor: Arc<E>) -> Self {
        let governor = QueueGovernor::new(executor.batch_config(), executor.workers());
        Pool { executor, governor, served: AtomicU64::new(0) }
    }

    /// Jobs currently waiting in the admission queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.governor.depth()
    }

    /// Answers one query, waiting for the answer: the closed-loop client
    /// path.  Granted an execution slot — nothing queued, fewer than
    /// `workers` executions in flight — the query runs here, on the caller's
    /// thread, as a batch of one under the admission accounting a dequeued
    /// job gets.  Otherwise it queues behind what is already there, and this
    /// thread sleeps until another caller's batch answers it or a slot is
    /// handed to it to lead a batch of its own.
    ///
    /// # Errors
    ///
    /// Propagates admission and execution errors.
    pub fn execute(&self, raw: &str) -> Result<E::Response, ServerError> {
        let stats = self.executor.stats();
        let submitted = Instant::now();
        // Parsed here so the governor can shed the request without re-parsing
        // the line.
        let deadline =
            split_request_meta(raw).0.deadline(submitted, self.executor.default_deadline());
        let mut waiting = None;
        let queued = || {
            let (wake, turn) = mpsc::channel();
            waiting = Some(turn);
            Job { raw: raw.to_owned(), wake, submitted, deadline }
        };
        let Some(_slot) = self.governor.admit(queued, stats)? else {
            let turn = waiting.expect("no slot granted: the job was queued");
            return match turn.recv() {
                Ok(Turn::Answered(result)) => result,
                Ok(Turn::Lead) => {
                    self.lead(raw, submitted, deadline, Slot { governor: &self.governor })
                }
                // Dropped unanswered: the leader that drained it died.
                Err(_) => Err(ServerError::ShuttingDown),
            };
        };
        // Admitted the instant it was submitted.
        if !live_at(deadline, submitted, stats) {
            return Err(ServerError::DeadlineExceeded);
        }
        stats.inc(Metric::Inline);
        self.served.fetch_add(1, Ordering::Relaxed);
        run_guarded(&*self.executor, &[raw], submitted)
            .pop()
            .expect("one query in, one response out")
    }

    /// Runs a batch under the `slot` handed to a queued caller: its own
    /// query first, then the jobs drained behind it; answers the other
    /// callers and returns its own answer.
    fn lead(
        &self,
        raw: &str,
        submitted: Instant,
        deadline: Option<Instant>,
        slot: Slot<'_, E::Response>,
    ) -> Result<E::Response, ServerError> {
        let stats = self.executor.stats();
        let now = Instant::now();
        let own = live_at(deadline, now, stats);
        let others = self.governor.drain(now, stats);
        let mut raws = Vec::with_capacity(1 + others.len());
        // Time the batch from its earliest submission, so queueing delay
        // lands in the recorded latency (and in the trace, as the queue_wait
        // stage).
        let mut started = now;
        if own {
            raws.push(raw);
            started = submitted;
        }
        for job in &others {
            raws.push(job.raw.as_str());
            started = started.min(job.submitted);
        }
        // Everything it would have run had expired: the slot passes on.
        if raws.is_empty() {
            return Err(ServerError::DeadlineExceeded);
        }
        let mut responses = run_guarded(&*self.executor, &raws, started).into_iter();
        // Given back before anyone is answered: a client that sends its next
        // request the moment it reads this answer finds the slot free.
        drop(slot);
        self.served.fetch_add(raws.len() as u64, Ordering::Relaxed);
        let answer = if own {
            responses.next().expect("one response per query")
        } else {
            Err(ServerError::DeadlineExceeded)
        };
        for (job, response) in others.iter().zip(responses) {
            // A client that gave up is not an error.
            let _ = job.wake.send(Turn::Answered(response));
        }
        answer
    }

    /// Closes admission and returns the total number of queries executed.
    pub fn shutdown(self) -> u64 {
        self.governor.close();
        self.served.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    type Wait = mpsc::Receiver<Turn<()>>;

    fn job(raw: &str) -> (Job<()>, Wait) {
        job_with_deadline(raw, None)
    }

    fn job_with_deadline(raw: &str, deadline: Option<Instant>) -> (Job<()>, Wait) {
        let (wake, turn) = mpsc::channel();
        (Job { raw: raw.to_owned(), wake, submitted: Instant::now(), deadline }, turn)
    }

    /// A governor with no slots: every admission queues, and these tests
    /// drain by hand.
    fn governor(config: BatchConfig) -> (QueueGovernor<()>, ServerStats) {
        (QueueGovernor::new(config, 0), ServerStats::new())
    }

    impl<R> QueueGovernor<R> {
        /// Admits `job`, which queues when no slot can be granted.
        fn submit(&self, job: Job<R>, stats: &ServerStats) -> Result<(), ServerError> {
            self.admit(|| job, stats).map(|slot| assert!(slot.is_none(), "no slot to grant"))
        }
    }

    impl<E: Executor> Pool<E> {
        /// Takes a free execution slot, as an inline run does, and holds it
        /// until the guard drops.
        pub(crate) fn occupy(&self) -> Slot<'_, E::Response> {
            let slot =
                self.governor.admit(|| unreachable!("a slot is free"), self.executor.stats());
            slot.unwrap().expect("granted, not queued")
        }

        /// Stops admission, as `shutdown` does, while callers may still hold
        /// the pool.
        pub(crate) fn close(&self) {
            self.governor.close();
        }
    }

    #[test]
    fn unbounded_governor_admits_everything() {
        let (governor, stats) = governor(BatchConfig::default());
        for i in 0..100 {
            let (j, _turn) = job(&format!("q{i}"));
            governor.submit(j, &stats).unwrap();
        }
        assert_eq!(governor.depth(), 100);
        assert_eq!(stats.get(Metric::Shed), 0);
    }

    #[test]
    fn reject_new_sheds_the_submission() {
        let (governor, stats) = governor(BatchConfig { queue_bound: 2, ..BatchConfig::default() });
        let (a, _ta) = job("a");
        let (b, _tb) = job("b");
        let (c, _tc) = job("c");
        governor.submit(a, &stats).unwrap();
        governor.submit(b, &stats).unwrap();
        assert_eq!(governor.submit(c, &stats).unwrap_err(), ServerError::Overloaded);
        assert_eq!(governor.depth(), 2);
        assert_eq!(stats.get(Metric::Shed), 1);
    }

    #[test]
    fn batches_drain_up_to_max_batch() {
        let (governor, stats) = governor(BatchConfig { max_batch: 3, ..BatchConfig::default() });
        let mut turns = Vec::new();
        for i in 0..5 {
            let (j, t) = job(&format!("q{i}"));
            governor.submit(j, &stats).unwrap();
            turns.push(t);
        }
        // A leader's own job is the first of its batch: two fit beside it.
        let drain = || governor.drain(Instant::now(), &stats).len();
        assert_eq!(drain(), 2);
        assert_eq!(drain(), 2);
        assert_eq!(drain(), 1);
        assert_eq!(drain(), 0);
    }

    #[test]
    fn closed_governor_rejects_submissions_but_drains() {
        let (governor, stats) = governor(BatchConfig::default());
        let (a, _ta) = job("a");
        governor.submit(a, &stats).unwrap();
        governor.close();
        let (b, _tb) = job("b");
        assert_eq!(governor.submit(b, &stats).unwrap_err(), ServerError::ShuttingDown);
        // Admitted work survives the close.
        assert_eq!(governor.drain(Instant::now(), &stats).len(), 1);
        assert_eq!(governor.depth(), 0);
    }

    #[test]
    fn expired_jobs_are_shed_at_dequeue_with_a_distinct_count() {
        let (governor, stats) = governor(BatchConfig::default());
        let (dead, dead_turn) = job_with_deadline("dead", Some(Instant::now()));
        let (live, _live_turn) =
            job_with_deadline("live", Some(Instant::now() + Duration::from_secs(60)));
        let (plain, _plain_turn) = job("plain");
        governor.submit(dead, &stats).unwrap();
        governor.submit(live, &stats).unwrap();
        governor.submit(plain, &stats).unwrap();
        let batch = governor.drain(Instant::now(), &stats);
        let raws: Vec<&str> = batch.iter().map(|j| j.raw.as_str()).collect();
        assert_eq!(raws, ["live", "plain"]);
        // The expired job's caller got a deadline answer, not a hang, and
        // the shed was attributed to expiry.
        assert!(matches!(
            dead_turn.try_recv(),
            Ok(Turn::Answered(Err(ServerError::DeadlineExceeded)))
        ));
        assert_eq!(stats.deadline_exceeded(DeadlineStage::Queue), 1);
        assert_eq!(stats.get(Metric::Shed), 1);
    }

    #[test]
    fn a_slot_given_back_wakes_only_the_head_of_the_queue() {
        let stats = ServerStats::new();
        let governor = QueueGovernor::new(BatchConfig::default(), 1);
        let inline = governor.admit(|| unreachable!("a slot is free"), &stats).unwrap();
        let (first, first_turn) = job("first");
        let (second, second_turn) = job("second");
        governor.submit(first, &stats).unwrap();
        governor.submit(second, &stats).unwrap();
        drop(inline);
        // The slot passed to the head's caller without being freed: a new
        // request would still queue, and the second caller sleeps on.
        assert!(matches!(first_turn.try_recv(), Ok(Turn::Lead)));
        assert!(second_turn.try_recv().is_err());
        assert_eq!(governor.depth(), 1);
        assert_eq!(governor.state.lock().unwrap().running, 1);
        drop(Slot { governor: &governor });
        assert!(matches!(second_turn.try_recv(), Ok(Turn::Lead)));
        // With nothing queued, the slot is free again.
        drop(Slot { governor: &governor });
        assert_eq!(governor.state.lock().unwrap().running, 0);
    }

    /// An executor that does what `inner` does, except that a batch holding
    /// the query `wedge` first reports in and waits to be released, and one
    /// holding `explode` panics.  It keeps the most batches it ever ran at
    /// once and, in the order they finished, each batch's queries and the
    /// thread it ran on.
    struct Scripted<E> {
        inner: Arc<E>,
        entered: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
        in_flight: AtomicU64,
        high_water: AtomicU64,
        batches: Mutex<Vec<(ThreadId, Vec<String>)>>,
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
        ) -> Vec<Result<E::Response, ServerError>> {
            assert!(!raws.contains(&"explode"), "scripted panic");
            let running = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.high_water.fetch_max(running, Ordering::SeqCst);
            if raws.contains(&"wedge") {
                self.entered.lock().unwrap().send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
            }
            let responses = self.inner.run_batch(raws, started);
            let raws = raws.iter().map(|raw| (*raw).to_owned()).collect();
            self.batches.lock().unwrap().push((std::thread::current().id(), raws));
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

    /// A scripted pool over `inner`, the receiver its wedged batches report
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
            batches: Mutex::new(Vec::new()),
        };
        (Pool::start(Arc::new(executor)), entered_rx, release_tx)
    }

    /// Every query the pool's executor finished, in order.
    fn finished<E: Executor>(pool: &Pool<Scripted<E>>) -> Vec<String> {
        let batches = pool.executor.batches.lock().unwrap();
        batches.iter().flat_map(|(_, raws)| raws.iter().cloned()).collect()
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
    /// builds a fresh executor that answers `rust` and `search`.  Every
    /// query is an `execute` call, those that must queue on threads of
    /// their own.
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
            // Every slot is held inline: a further `execute` queues, and
            // each issued later queues behind it.
            let third = scope.spawn(|| pool.execute("rust"));
            await_depth(&pool, 1);
            let fourth = scope.spawn(|| pool.execute("search"));
            await_depth(&pool, 2);
            let fifth = scope.spawn(|| pool.execute("rust search"));
            await_depth(&pool, 3);
            // None of them started.
            assert_eq!(slots_held(&pool), workers);
            assert_eq!(pool.executor.in_flight.load(Ordering::SeqCst), workers as u64);
            assert!(finished(&pool).is_empty());
            assert!(!third.is_finished());
            // One slot comes back: the queue drains through it, in order.
            release.send(()).unwrap();
            assert!(third.join().unwrap().is_ok());
            assert!(fourth.join().unwrap().is_ok());
            assert!(fifth.join().unwrap().is_ok());
            assert_eq!(finished(&pool), ["wedge", "rust", "search", "rust search"]);
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

        // A backlog drains as one batch, with no timer: the jobs that queued
        // behind the wedged slot are all there when it comes back, and each
        // distinct query in them is worked once — on the thread of the
        // caller whose job headed the queue.
        let inner = make(1, BatchConfig { max_batch: 8, ..BatchConfig::default() });
        let (pool, entered, release) = scripted(Arc::clone(&inner));
        std::thread::scope(|scope| {
            let pool = &pool;
            let wedged = scope.spawn(|| pool.execute("wedge"));
            entered.recv().unwrap();
            let backlog: Vec<_> = ["rust", "search", "rust", "rust search", "search", "rust"]
                .into_iter()
                .enumerate()
                .map(|(i, raw)| {
                    let caller = scope.spawn(move || pool.execute(raw));
                    await_depth(pool, i + 1);
                    caller
                })
                .collect();
            let head = backlog[0].thread().id();
            release.send(()).unwrap();
            assert!(wedged.join().unwrap().is_ok());
            for caller in backlog {
                assert!(caller.join().unwrap().is_ok());
            }
            let batches = pool.executor.batches.lock().unwrap();
            assert_eq!(batches.len(), 2, "the wedge ran alone, the backlog as one");
            assert_eq!(batches[1].0, head);
        });
        assert_eq!(inner.stats().get(Metric::Batches), 1);
        assert_eq!(inner.stats().get(Metric::DedupHits), 6 - 3);
        assert_eq!(inner.stats().get(Metric::Batched), 6);
        assert_eq!(pool.shutdown(), 7);

        // A full bounded queue rejects the new request, and what was
        // admitted is served.
        let inner = make(1, BatchConfig { max_batch: 1, queue_bound: 1 });
        let (pool, entered, release) = scripted(Arc::clone(&inner));
        std::thread::scope(|scope| {
            let wedged = scope.spawn(|| pool.execute("wedge"));
            entered.recv().unwrap();
            // The one slot is held and the queue empty: one job fits.
            let first = scope.spawn(|| pool.execute("rust"));
            await_depth(&pool, 1);
            assert_eq!(pool.execute("search").err(), Some(ServerError::Overloaded));
            release.send(()).unwrap();
            assert!(first.join().unwrap().is_ok());
            assert!(wedged.join().unwrap().is_ok());
        });
        assert_eq!(inner.stats().get(Metric::Shed), 1);
        assert_eq!(pool.shutdown(), 2, "the wedge and the job that stayed");

        // An expired request is answered at admission — here on an idle
        // pool, so under a slot on this thread — without executing.
        let inner = make(1, BatchConfig::default());
        let (pool, entered, release) = scripted(Arc::clone(&inner));
        assert_eq!(pool.execute("@d=0 rust").err(), Some(ServerError::DeadlineExceeded));
        assert_eq!(inner.stats().deadline_exceeded(DeadlineStage::Queue), 1);
        assert_eq!(inner.stats().get(Metric::Batches), 0);
        assert_eq!(inner.stats().get(Metric::Errors), 0);
        assert_eq!(inner.stats().get(Metric::Inline), 0);
        assert!(finished(&pool).is_empty());
        assert_eq!(slots_held(&pool), 0);

        // Closing stops admission, not service: what was admitted before is
        // served, and `shutdown` reports all of it.
        std::thread::scope(|scope| {
            let pool = &pool;
            let wedged = scope.spawn(|| pool.execute("wedge"));
            entered.recv().unwrap();
            let queued: Vec<_> = ["rust", "search", "rust"]
                .into_iter()
                .enumerate()
                .map(|(i, raw)| {
                    let caller = scope.spawn(move || pool.execute(raw));
                    await_depth(pool, i + 1);
                    caller
                })
                .collect();
            pool.close();
            assert_eq!(pool.execute("rust").err(), Some(ServerError::ShuttingDown));
            release.send(()).unwrap();
            assert!(wedged.join().unwrap().is_ok());
            for caller in queued {
                assert!(caller.join().unwrap().is_ok());
            }
        });
        assert_eq!(pool.shutdown(), 4);

        // A batch whose executor panics is answered, counted as an error,
        // and gives its slot back — run inline or led from the queue.
        for workers in [1, 2] {
            // One job per batch, so that two wedges hold two slots.
            let inner = make(workers, BatchConfig { max_batch: 1, ..BatchConfig::default() });
            let (pool, entered, release) = scripted(Arc::clone(&inner));
            for _ in 0..=workers {
                assert_eq!(pool.execute("explode").err(), Some(ServerError::Panicked));
                assert_eq!(slots_held(&pool), 0);
            }
            assert_eq!(inner.stats().get(Metric::Errors), workers as u64 + 1);
            // Each found the slot the one before it gave back.
            assert_eq!(inner.stats().get(Metric::Inline), workers as u64 + 1);
            std::thread::scope(|scope| {
                // Every slot is still there to be wedged at the same time.
                let wedged: Vec<_> =
                    (0..workers).map(|_| scope.spawn(|| pool.execute("wedge"))).collect();
                for _ in 0..workers {
                    entered.recv().unwrap();
                }
                let queued = scope.spawn(|| pool.execute("explode"));
                await_depth(&pool, 1);
                // Released all at once: which wedge takes which release is
                // not the order they were issued in.
                for _ in 0..workers {
                    release.send(()).unwrap();
                }
                for wedge in wedged {
                    assert!(wedge.join().unwrap().is_ok());
                }
                assert_eq!(queued.join().unwrap().err(), Some(ServerError::Panicked));
            });
            assert_eq!(slots_held(&pool), 0);
            assert_eq!(inner.stats().get(Metric::Errors), workers as u64 + 2);
            assert!(pool.execute("rust").is_ok());
            assert_eq!(pool.shutdown(), 2 * workers as u64 + 3);
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

    /// A queued caller handed a slot when its own job and everything behind
    /// it have expired runs no batch, and passes the slot on.
    #[test]
    fn an_all_expired_batch_runs_nothing_and_passes_the_slot_on() {
        let inner = small_engine(crate::engine::EngineConfig { workers: 1, ..Default::default() });
        let (pool, entered, release) = scripted(Arc::clone(&inner));
        std::thread::scope(|scope| {
            let pool = &pool;
            let wedged = scope.spawn(|| pool.execute("wedge"));
            entered.recv().unwrap();
            let queued: Vec<_> = ["@d=0 rust", "@d=0 search"]
                .into_iter()
                .enumerate()
                .map(|(i, raw)| {
                    let caller = scope.spawn(move || pool.execute(raw));
                    await_depth(pool, i + 1);
                    caller
                })
                .collect();
            release.send(()).unwrap();
            assert!(wedged.join().unwrap().is_ok());
            for caller in queued {
                assert_eq!(caller.join().unwrap().err(), Some(ServerError::DeadlineExceeded));
            }
        });
        assert_eq!(finished(&pool), ["wedge"]);
        assert_eq!(inner.stats().deadline_exceeded(DeadlineStage::Queue), 2);
        assert_eq!(inner.stats().get(Metric::Shed), 2);
        assert_eq!(slots_held(&pool), 0);
        assert_eq!(pool.shutdown(), 1);
    }
}
