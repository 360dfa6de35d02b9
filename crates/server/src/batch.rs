//! Batched query execution and admission control.
//!
//! PR 1's worker pool executed every queued query independently and accepted
//! unbounded load.  This module puts a scheduling layer between the front
//! ends and the workers:
//!
//! * [`QueueGovernor`] — the admission-controlled queue.  Submissions past a
//!   configurable depth bound are shed according to an [`OverloadPolicy`]
//!   (reject the new request, or drop the oldest queued one), and every shed
//!   request is counted in [`ServerStats`] and
//!   answered with [`ServerError::Overloaded`].
//! * **Batch draining** — a worker does not pop one job at a time: it drains
//!   up to [`BatchConfig::max_batch`] queued jobs in one go (optionally
//!   waiting up to [`BatchConfig::max_wait`] for the batch to fill).  All
//!   queries of a batch execute against a single snapshot load, so the whole
//!   batch shares one generation by construction.
//!   Identical canonical queries of a batch collapse to a single evaluation
//!   fanned out to every waiter (`dedup_hits` in the stats).
//!
//! The scheduler favours latency when idle: with `max_wait == 0` a lone
//! query is executed immediately as a batch of one, while a backlog drains
//! in `max_batch`-sized groups, which is where dedup pays off.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::engine::ServerError;
use crate::stats::ServerStats;

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

/// Anything the governor can queue.  Shedding consumes the job; the
/// implementation must answer the job's waiter with an overload error so a
/// dropped request is a fast failure, never a hang.
pub trait QueueJob: Send {
    /// Consumes the job, answering its waiter with "overloaded".
    fn shed(self);

    /// The absolute instant the job's answer stops being useful (`None`:
    /// no deadline).  The governor sheds already-expired jobs at dequeue
    /// time — executing dead work is strictly worse than dropping it — and
    /// never lingers a fill window past the earliest deadline in the batch.
    fn deadline(&self) -> Option<Instant> {
        None
    }

    /// Consumes the job, answering its waiter with "deadline exceeded".
    /// Defaults to the overload answer for job types without deadlines.
    fn expire(self)
    where
        Self: Sized,
    {
        self.shed();
    }
}

/// One drained batch plus the timing facts a worker needs to attribute
/// latency: when the drain happened (each job's `queue_wait` is the span
/// from its submission to this instant) and how long the worker then
/// lingered for late arrivals (the batch's shared `batch_fill` span).
#[derive(Debug)]
pub struct DrainedBatch<J> {
    /// The drained jobs, oldest first.
    pub jobs: Vec<J>,
    /// When the worker drained the queue.
    pub drained_at: Instant,
    /// How long the worker lingered for the batch to fill (zero unless a
    /// fill window was armed and taken).
    pub fill_wait: Duration,
}

struct GovernorState<J> {
    queue: VecDeque<J>,
    closed: bool,
    /// Timestamps of the most recent submissions (newest at the back), the
    /// adaptive controller's arrival-rate window.
    arrivals: VecDeque<Instant>,
}

/// The admission-controlled MPMC queue between submitters and workers.
///
/// Submitters `submit` jobs; workers drain them in batches via `next_batch`.  The governor
/// enforces [`BatchConfig::queue_bound`] at admission time and records every
/// shed request in the shared [`ServerStats`].  It is generic over the job
/// type so the query engine's worker pool and the scatter-gather router pool
/// share one scheduling layer.
pub struct QueueGovernor<J: QueueJob> {
    state: Mutex<GovernorState<J>>,
    available: Condvar,
    config: BatchConfig,
}

impl<J: QueueJob> QueueGovernor<J> {
    /// Creates an open governor enforcing `config`.
    #[must_use]
    pub fn new(config: BatchConfig) -> Self {
        QueueGovernor {
            state: Mutex::new(GovernorState {
                queue: VecDeque::new(),
                closed: false,
                arrivals: VecDeque::new(),
            }),
            available: Condvar::new(),
            config,
        }
    }

    /// The configuration this governor enforces.
    #[must_use]
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Number of jobs currently queued (a point-in-time gauge).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).queue.len()
    }

    /// Admits one job, shedding according to the overload policy when the
    /// queue is at its bound.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Overloaded`] when the job is rejected under
    /// [`OverloadPolicy::RejectNew`], and [`ServerError::ShuttingDown`] after
    /// [`close`](QueueGovernor::close).
    pub(crate) fn submit(&self, job: J, stats: &ServerStats) -> Result<(), ServerError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(ServerError::ShuttingDown);
        }
        let bound = self.config.queue_bound;
        if bound > 0 && state.queue.len() >= bound {
            match self.config.overload {
                OverloadPolicy::RejectNew => {
                    stats.record_shed();
                    return Err(ServerError::Overloaded);
                }
                OverloadPolicy::DropOldest => {
                    while state.queue.len() >= bound {
                        let victim = state.queue.pop_front().expect("len >= bound >= 1");
                        // The waiter may have given up; that is not an error.
                        victim.shed();
                        stats.record_shed();
                    }
                }
            }
        }
        state.queue.push_back(job);
        if self.config.adaptive {
            if state.arrivals.len() == ARRIVAL_SAMPLES {
                state.arrivals.pop_front();
            }
            state.arrivals.push_back(Instant::now());
        }
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until at least one job is available (or the governor closes),
    /// then drains up to `max_batch` jobs.  With a nonzero `max_wait` the
    /// worker lingers for late arrivals until the batch fills or the window
    /// expires; in [`adaptive`](BatchConfig::adaptive) mode it lingers only
    /// when the recent arrival rate suggests the batch would actually fill,
    /// recording every decision in `stats`.
    ///
    /// Returns `None` only when the governor is closed *and* drained, so
    /// shutdown never discards admitted work.
    pub(crate) fn next_batch(&self, stats: &ServerStats) -> Option<DrainedBatch<J>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        'refill: loop {
            loop {
                if !state.queue.is_empty() {
                    break;
                }
                if state.closed {
                    return None;
                }
                state = self.available.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            let drained = Instant::now();
            let take = self.config.max_batch.min(state.queue.len());
            let mut batch: Vec<J> = Vec::with_capacity(take);
            admit_live(state.queue.drain(..take), drained, &mut batch, stats);
            if batch.is_empty() {
                // Everything drained had already expired; go back to waiting
                // rather than hand a worker an empty batch.
                continue 'refill;
            }

            let mut linger = !self.config.max_wait.is_zero() && batch.len() < self.config.max_batch;
            if linger && self.config.adaptive {
                // Wait only when the batch is likely to fill: project the recent
                // arrival rate over the fill window and compare against the
                // number of free slots.
                let needed = self.config.max_batch - batch.len();
                let expected = expected_arrivals(&state.arrivals, drained, self.config.max_wait);
                linger = expected >= needed as f64;
                stats.record_adaptive_decision(linger);
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
                        .filter_map(QueueJob::deadline)
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
            return Some(DrainedBatch { jobs: batch, drained_at: drained, fill_wait });
        }
    }

    /// Closes the governor: subsequent submissions fail, workers drain what
    /// is queued and then observe the end of the stream.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.available.notify_all();
    }
}

impl<J: QueueJob> std::fmt::Debug for QueueGovernor<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueGovernor")
            .field("config", &self.config)
            .field("depth", &self.depth())
            .finish()
    }
}

/// Moves drained jobs into `batch`, shedding the ones whose deadline has
/// already passed (answered with "deadline exceeded" and counted as
/// `expired=` sheds).  Surviving deadline-carrying jobs record their
/// remaining budget at dequeue — the queue-pressure signal an operator tunes
/// deadlines against.
fn admit_live<J: QueueJob>(
    jobs: impl Iterator<Item = J>,
    now: Instant,
    batch: &mut Vec<J>,
    stats: &ServerStats,
) {
    for job in jobs {
        match job.deadline() {
            Some(deadline) if deadline <= now => {
                job.expire();
                stats.record_expired_shed();
            }
            deadline => {
                if let Some(deadline) = deadline {
                    stats.record_remaining_budget(deadline.duration_since(now));
                }
                batch.push(job);
            }
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Job, PendingResponse};
    use std::sync::mpsc;

    fn job(raw: &str) -> (Job, PendingResponse) {
        job_with_deadline(raw, None)
    }

    fn job_with_deadline(raw: &str, deadline: Option<Instant>) -> (Job, PendingResponse) {
        let (respond, receiver) = mpsc::channel();
        (
            Job { raw: raw.to_owned(), respond, submitted: Instant::now(), deadline },
            PendingResponse::from_receiver(receiver),
        )
    }

    fn governor(config: BatchConfig) -> (QueueGovernor<Job>, ServerStats) {
        (QueueGovernor::new(config), ServerStats::new())
    }

    #[test]
    fn unbounded_governor_admits_everything() {
        let (governor, stats) = governor(BatchConfig::default());
        for i in 0..100 {
            let (j, _pending) = job(&format!("q{i}"));
            governor.submit(j, &stats).unwrap();
        }
        assert_eq!(governor.depth(), 100);
        assert_eq!(stats.shed_count(), 0);
        assert_eq!(governor.config().queue_bound, 0);
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
        assert_eq!(stats.shed_count(), 1);
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
        assert_eq!(stats.shed_count(), 1);
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
        assert!(first.drained_at.elapsed() < Duration::from_secs(5));
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
        assert_eq!(stats.adaptive_skip_count(), 1);
        assert_eq!(stats.adaptive_wait_count(), 0);
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
        assert_eq!(stats.adaptive_skip_count(), 1);
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
        assert_eq!(stats.adaptive_wait_count(), 1);
        assert_eq!(stats.adaptive_skip_count(), 0);
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
        assert_eq!(stats.adaptive_wait_count() + stats.adaptive_skip_count(), 0);
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
        assert_eq!(stats.expired_count(), 1);
        assert_eq!(stats.shed_count(), 1);
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
        assert_eq!(stats.expired_count(), 1);
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
        assert!(
            format!("{:?}", QueueGovernor::<Job>::new(BatchConfig::default())).contains("depth")
        );
    }
}
