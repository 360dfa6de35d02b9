//! Every shard is a replica set, and one gather dispatches them all.
//!
//! A [`ReplicaSet`] puts N interchangeable members — any mix of
//! [`LocalShards`](crate::route::LocalShards) and
//! [`RemoteShard`](crate::route::RemoteShard) — behind one logical shard; a
//! plain shard is a set of one.  The set keeps one row per member: its
//! backend, the one worker thread that makes its calls, its in-flight count,
//! its circuit breaker and its round-trip histogram.  `gather` is the one
//! dispatcher: the [`Router`](crate::route::Router)'s scatter is a gather
//! over all its sets, [`ReplicaSet::search`] a gather over one, and a single
//! loop waits for every reply, hedge timer and deadline.
//!
//! * **Least-loaded pick.**  A call orders the members once: by breaker
//!   state (closed, half-open, open), then by requests in flight (queued
//!   included), then by index, so a single-client workload is
//!   deterministic.  While any member is closed, only closed members are
//!   candidates.  The primary is the first; failovers and the hedge take the
//!   next ones in that order.
//! * **Health gating.**  Every member carries a circuit-breaker state
//!   machine: `closed` (serving) → `open` after
//!   [`failure_threshold`](ReplicaSetConfig::failure_threshold) consecutive
//!   failed calls → `half-open` once the probe backoff elapses, at which
//!   point one live batch is mirrored to the member as a probe — or, when no
//!   member is closed and it comes first in the pick, the primary dispatch
//!   is its probe.  Every due member is probed once per call.  A probe success
//!   closes the member again; a probe failure re-opens it with the backoff
//!   doubled (capped at [`max_backoff`](ReplicaSetConfig::max_backoff)).
//!   Open members are skipped while a closed one exists, so a known-dead
//!   backend costs zero connect timeouts on the hot path.
//! * **Hedged requests.**  When the primary has not answered within a
//!   deadline — fixed via [`hedge_after`](ReplicaSetConfig::hedge_after), or
//!   derived from the set's rolling round-trip p99 once
//!   [`hedge_min_samples`](ReplicaSetConfig::hedge_min_samples) calls have
//!   been observed — the call is re-issued to the next member in pick order
//!   and the first answer wins.  The loser's reply is dropped once its
//!   worker thread has done the breaker bookkeeping; `hedges=`/`hedge_wins=`
//!   count both sides.  The gather sleeps until the earlier of the hedge
//!   timer and the query's deadline, so no hedge is sent past the deadline.
//!
//! Errors fail over immediately (no timer needed): a member whose whole
//! batch failed marks a failure against its breaker and the call moves to
//! the next member in pick order.  Only when every member tried has failed
//! does the caller see an error — so with one of two replicas down, zero
//! queries fail and none are `partial=true`.
//!
//! Hedges and failovers both draw from a **retry budget** — a token bucket
//! deposited [`retry_budget_pct`](ReplicaSetConfig::retry_budget_pct)
//! percent of a token per primary request and charged one token per extra
//! dispatch.  Under a correlated failure (every replica slow or down) the
//! budget drains and further calls fail fast instead of multiplying load by
//! the replica count exactly when the shard is least able to absorb it;
//! each refused dispatch increments `dsearch_retry_budget_exhausted_total`.
//!
//! Metrics surface through [`ReplicaSet::bind_metrics`]: a
//! `dsearch_replica_state{replica=…}` gauge (0 = closed, 1 = half-open,
//! 2 = open), `dsearch_replica_opens_total` / `dsearch_replica_recoveries_total`
//! transition counters, and set-wide `dsearch_hedges_total` /
//! `dsearch_hedge_wins_total`.  Each is kept once: the set counts into its
//! own handles from construction, and binding hands those same handles to
//! the registry (`adopt_counter` / `adopt_gauge`), so the getters below and a
//! `!metrics` scrape read the same atomics.  Binding also interns the
//! shard's `dsearch_shard_rtt_ns{shard=…}`, the time until the set's answer,
//! which the gather records from then on.

use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dsearch_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::engine::ConfigError;
use crate::route::{backend_panicked, Replies, ShardBackend, ShardError, ShardReply};
use crate::stats::{Metric, SHARD_RTT_METRIC};

/// Per-replica health-state gauge (0 = closed, 1 = half-open, 2 = open).
pub const REPLICA_STATE_METRIC: &str = "dsearch_replica_state";
/// Closed→open transitions per replica.
pub const REPLICA_OPENS_METRIC: &str = "dsearch_replica_opens_total";
/// Half-open→closed recoveries per replica.
pub const REPLICA_RECOVERIES_METRIC: &str = "dsearch_replica_recoveries_total";
/// Hedged dispatches across all replica sets bound to a registry.
pub const HEDGES_METRIC: &str = "dsearch_hedges_total";
/// Hedges whose second dispatch answered first.
pub const HEDGE_WINS_METRIC: &str = "dsearch_hedge_wins_total";

/// Circuit-breaker state of one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Serving: eligible for the least-loaded pick.
    Closed,
    /// Out of rotation after consecutive failures; waiting out the backoff.
    Open,
    /// Backoff elapsed: one probe in flight decides open vs closed.
    HalfOpen,
}

impl ReplicaState {
    /// The state as its `!stats` / log token.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ReplicaState::Closed => "closed",
            ReplicaState::Open => "open",
            ReplicaState::HalfOpen => "half-open",
        }
    }

    /// The state encoded for the `dsearch_replica_state` gauge — also the
    /// order in which the pick prefers states.
    #[must_use]
    pub fn as_gauge(self) -> u64 {
        match self {
            ReplicaState::Closed => 0,
            ReplicaState::HalfOpen => 1,
            ReplicaState::Open => 2,
        }
    }
}

impl std::fmt::Display for ReplicaState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tuning for a [`ReplicaSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaSetConfig {
    /// Consecutive failed calls before a closed replica opens.
    pub failure_threshold: u32,
    /// How long an open replica stays out of rotation before the first
    /// probe; doubles on every failed probe.
    pub probe_backoff: Duration,
    /// Cap on the doubled probe backoff.
    pub max_backoff: Duration,
    /// Fixed hedge deadline; `None` derives it from the set's rolling
    /// round-trip p99 (when `adaptive_hedge` is on).
    pub hedge_after: Option<Duration>,
    /// Whether to hedge on the adaptive p99 deadline when no fixed deadline
    /// is set; `false` with `hedge_after: None` disables hedging entirely.
    pub adaptive_hedge: bool,
    /// Round trips observed before the adaptive deadline arms — hedging off
    /// a handful of samples would fire on noise.
    pub hedge_min_samples: u64,
    /// Percent of the primary request rate that hedges and failovers may
    /// add: each request deposits `retry_budget_pct`% of a token, each
    /// extra dispatch withdraws a whole one (the bucket starts, and caps,
    /// at `max(1, retry_budget_pct)` tokens).  `10` bounds retry traffic at
    /// roughly 10% of recent request volume.
    pub retry_budget_pct: u32,
}

impl Default for ReplicaSetConfig {
    fn default() -> Self {
        ReplicaSetConfig {
            failure_threshold: 3,
            probe_backoff: Duration::from_millis(500),
            max_backoff: Duration::from_secs(8),
            hedge_after: None,
            adaptive_hedge: true,
            hedge_min_samples: 32,
            retry_budget_pct: 10,
        }
    }
}

/// The retry token bucket: deposits are fractional (a percentage of each
/// primary request), withdrawals are whole tokens, and the balance is a
/// single atomic in milli-tokens so the hot path never takes a lock.
struct RetryBudget {
    /// Balance in milli-tokens (1 token = 1000).
    balance: AtomicU64,
    /// Milli-tokens deposited per primary request (`pct * 10`).
    deposit: u64,
    /// Bucket capacity in milli-tokens; also the starting balance, so a
    /// cold set can still hedge before any history accumulates.
    cap: u64,
}

impl RetryBudget {
    fn new(pct: u32) -> Self {
        let cap = u64::from(pct.max(1)) * 1000;
        RetryBudget { balance: AtomicU64::new(cap), deposit: u64::from(pct) * 10, cap }
    }

    /// Credits one primary request.
    fn deposit(&self) {
        let _ = self.balance.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |balance| {
            Some((balance + self.deposit).min(self.cap))
        });
    }

    /// Withdraws one token for an extra dispatch; `false` when the budget
    /// is exhausted (the dispatch must not happen).
    fn withdraw(&self) -> bool {
        self.balance
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |balance| balance.checked_sub(1000))
            .is_ok()
    }
}

/// Mutable health of one replica, guarded by its mutex.
#[derive(Debug)]
struct Health {
    state: ReplicaState,
    consecutive_failures: u32,
    /// When an open replica may next be probed.
    probe_at: Option<Instant>,
    /// Current probe backoff; doubles on every failed probe.
    backoff: Duration,
}

/// A batch as the worker threads share it: the canonical queries and one
/// trace id per query (zero meaning untraced).
type Batch = Arc<(Vec<String>, Vec<u64>)>;

/// What a worker thread sends back to a gather: `(shard, member, replies,
/// when they were ready)`.
type Reply = (usize, usize, Replies, Instant);

/// One call queued on a member's thread, with the gather its replies go to
/// (and the shard's index there); `None` for a probe nobody waits for.
struct Task {
    batch: Batch,
    respond: Option<(mpsc::Sender<Reply>, usize)>,
}

/// Whether a batch's replies clear the member: an empty batch proves
/// nothing, and per-query rejections leave the breaker alone — only a batch
/// where every query failed is a member failure.
fn answered(replies: &Replies) -> bool {
    replies.is_empty() || replies.iter().any(Result::is_ok)
}

/// One member of a set: its backend and everything the set knows about it,
/// shared with the member's worker thread.
struct Member {
    backend: Box<dyn ShardBackend>,
    id: String,
    /// Calls dispatched but not yet completed (queued included), the load
    /// signal for the pick.
    in_flight: AtomicU64,
    health: Mutex<Health>,
    /// This member's own round trips (answered calls only).
    rtt: Histogram,
    /// The set-wide round-trip histogram feeding the adaptive hedge deadline.
    set_rtt: Arc<Histogram>,
    /// `health.state` as the `dsearch_replica_state` gauge, written where
    /// the state is, under the health lock.
    state_gauge: Arc<Gauge>,
    /// Transition counters, live from construction; `bind_metrics` exposes
    /// these same handles.
    opens: Arc<Counter>,
    recoveries: Arc<Counter>,
    probes: Counter,
    config: ReplicaSetConfig,
}

impl Member {
    fn state(&self) -> ReplicaState {
        self.health.lock().state
    }

    /// A whole-batch success: reset the failure streak, and close the
    /// replica if it was open or probing.
    fn note_success(&self) {
        let mut health = self.health.lock();
        health.consecutive_failures = 0;
        if health.state != ReplicaState::Closed {
            health.state = ReplicaState::Closed;
            health.backoff = self.config.probe_backoff;
            health.probe_at = None;
            self.state_gauge.set(ReplicaState::Closed.as_gauge());
            self.recoveries.inc();
        }
    }

    /// A whole-batch failure: extend the streak and open the breaker when it
    /// crosses the threshold (or immediately, for a failed probe).
    fn note_failure(&self) {
        let mut health = self.health.lock();
        health.consecutive_failures = health.consecutive_failures.saturating_add(1);
        let opened = match health.state {
            // A failed probe re-opens with the backoff doubled: a replica
            // that keeps failing gets probed geometrically less often.
            ReplicaState::HalfOpen => {
                health.backoff = (health.backoff * 2).min(self.config.max_backoff);
                true
            }
            ReplicaState::Closed => {
                health.consecutive_failures >= self.config.failure_threshold.max(1)
            }
            ReplicaState::Open => false,
        };
        if opened {
            health.state = ReplicaState::Open;
            health.probe_at = Some(Instant::now() + health.backoff);
            self.state_gauge.set(ReplicaState::Open.as_gauge());
            self.opens.inc();
        }
    }

    /// Moves an open replica whose backoff elapsed to half-open, returning
    /// `true` exactly once per probe window.
    fn begin_probe(&self) -> bool {
        let mut health = self.health.lock();
        let due = health.state == ReplicaState::Open
            && health.probe_at.is_some_and(|at| Instant::now() >= at);
        if !due {
            return false;
        }
        health.state = ReplicaState::HalfOpen;
        health.probe_at = None;
        self.state_gauge.set(ReplicaState::HalfOpen.as_gauge());
        drop(health);
        self.probes.inc();
        true
    }

    /// The one call to the backend, made by the member's thread or inline by
    /// a gather: a panicking backend fails the batch (`unavailable: …
    /// panicked`), never the thread.  Then one call less in flight, and the
    /// breaker's verdict on it.
    fn call(&self, canonicals: &[String], ids: &[u64]) -> Replies {
        let sent = Instant::now();
        let replies = catch_unwind(AssertUnwindSafe(|| self.backend.search_batch(canonicals, ids)))
            .unwrap_or_else(|_| vec![Err(backend_panicked()); canonicals.len()]);
        let rtt = sent.elapsed();
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        if answered(&replies) {
            self.note_success();
            self.rtt.record(rtt);
            self.set_rtt.record(rtt);
        } else {
            self.note_failure();
        }
        replies
    }
}

/// N members behind one logical shard: least-loaded healthy pick, circuit
/// breaking, and hedged requests.  See the module docs for the full model.
pub struct ReplicaSet {
    id: String,
    members: Vec<Arc<Member>>,
    /// Each member's task queue and the one thread draining it (same
    /// order).
    workers: Vec<(mpsc::Sender<Task>, JoinHandle<()>)>,
    config: ReplicaSetConfig,
    /// Set-wide rolling round trips; feeds the adaptive hedge deadline.
    set_rtt: Arc<Histogram>,
    /// The time until the set's answer, as `dsearch_shard_rtt_ns{shard=…}`
    /// of the first registry it is bound to; the gather records it.
    rtt: OnceLock<Arc<Histogram>>,
    hedges: Arc<Counter>,
    hedge_wins: Arc<Counter>,
    /// Token bucket bounding hedge + failover traffic.
    retry_budget: RetryBudget,
    retry_exhausted: Arc<Counter>,
}

impl ReplicaSet {
    /// Builds a replica set named `id` over `replicas`.
    ///
    /// # Errors
    ///
    /// Fails with [`ConfigError::NoShards`] when `replicas` is empty.
    pub fn new(
        id: impl Into<String>,
        replicas: Vec<Box<dyn ShardBackend>>,
        config: ReplicaSetConfig,
    ) -> Result<Self, ConfigError> {
        if replicas.is_empty() {
            return Err(ConfigError::NoShards);
        }
        let set_rtt = Arc::new(Histogram::new());
        let members: Vec<Arc<Member>> = replicas
            .into_iter()
            .map(|backend| {
                Arc::new(Member {
                    id: backend.id(),
                    backend,
                    in_flight: AtomicU64::new(0),
                    health: Mutex::new(Health {
                        state: ReplicaState::Closed,
                        consecutive_failures: 0,
                        probe_at: None,
                        backoff: config.probe_backoff,
                    }),
                    rtt: Histogram::new(),
                    set_rtt: Arc::clone(&set_rtt),
                    state_gauge: Arc::default(),
                    opens: Arc::default(),
                    recoveries: Arc::default(),
                    probes: Counter::new(),
                    config,
                })
            })
            .collect();
        let workers = members
            .iter()
            .enumerate()
            .map(|(index, member)| {
                let (tasks, queue) = mpsc::channel::<Task>();
                let member = Arc::clone(member);
                let thread = std::thread::spawn(move || {
                    while let Ok(Task { batch, respond }) = queue.recv() {
                        let replies = member.call(&batch.0, &batch.1);
                        if let Some((gather, shard)) = respond {
                            // The gather may have finished without it; fine.
                            let _ = gather.send((shard, index, replies, Instant::now()));
                        }
                    }
                });
                (tasks, thread)
            })
            .collect();
        Ok(ReplicaSet {
            id: id.into(),
            members,
            workers,
            config,
            set_rtt,
            rtt: OnceLock::new(),
            hedges: Arc::default(),
            hedge_wins: Arc::default(),
            retry_budget: RetryBudget::new(config.retry_budget_pct),
            retry_exhausted: Arc::default(),
        })
    }

    /// The set's id: the shard's name in errors, `!stats` and traces.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Number of replicas in the set.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.members.len()
    }

    /// Each replica's id and current breaker state.
    #[must_use]
    pub fn replica_states(&self) -> Vec<(String, ReplicaState)> {
        self.members.iter().map(|m| (m.id.clone(), m.state())).collect()
    }

    /// Hedged dispatches so far.
    #[must_use]
    pub fn hedge_count(&self) -> u64 {
        self.hedges.value()
    }

    /// Hedges whose second dispatch answered first.
    #[must_use]
    pub fn hedge_win_count(&self) -> u64 {
        self.hedge_wins.value()
    }

    /// Hedge or failover dispatches refused because the retry budget was
    /// empty.
    #[must_use]
    pub fn retry_exhausted_count(&self) -> u64 {
        self.retry_exhausted.value()
    }

    /// Closed→open transitions across all replicas.
    #[must_use]
    pub fn open_count(&self) -> u64 {
        self.members.iter().map(|m| m.opens.value()).sum()
    }

    /// Recoveries (→closed from open/half-open) across all replicas.
    #[must_use]
    pub fn recovery_count(&self) -> u64 {
        self.members.iter().map(|m| m.recoveries.value()).sum()
    }

    /// Probes dispatched across all replicas.
    #[must_use]
    pub fn probe_count(&self) -> u64 {
        self.members.iter().map(|m| m.probes.value()).sum()
    }

    /// Answers one canonical query: the gather over this set alone.
    ///
    /// # Errors
    ///
    /// Reports the last failure when every replica tried failed.
    pub fn search(&self, canonical: &str) -> Result<ShardReply, ShardError> {
        let mut answer = gather(std::slice::from_ref(self), &[canonical.to_owned()], &[0], None);
        let (mut replies, _) = answer.pop().flatten().expect("with no deadline every set answers");
        replies.pop().expect("one query in, one reply out")
    }

    /// Interns this set's metrics — replica health gauges, transition and
    /// hedge counters, retry-budget refusals, the shard's round trip — into
    /// `registry`, so they surface through its `!metrics`.
    pub fn bind_metrics(&self, registry: &MetricsRegistry) {
        self.rtt.get_or_init(|| registry.labeled_histogram(SHARD_RTT_METRIC, "shard", &self.id));
        for member in &self.members {
            let label = Some(("replica", member.id.as_str()));
            registry.adopt_gauge(REPLICA_STATE_METRIC, label, &member.state_gauge);
            registry.adopt_counter(REPLICA_OPENS_METRIC, label, &member.opens);
            registry.adopt_counter(REPLICA_RECOVERIES_METRIC, label, &member.recoveries);
        }
        // Unlabelled: every set bound to one registry adds into the same
        // series, the last beside the handle the router's `ServerStats`
        // registered eagerly — so refusals surface in the router's `!stats`
        // (`retry_exhausted=`) and `!metrics` directly.
        registry.adopt_counter(HEDGES_METRIC, None, &self.hedges);
        registry.adopt_counter(HEDGE_WINS_METRIC, None, &self.hedge_wins);
        registry.adopt_counter(Metric::RetryExhausted.row().series, None, &self.retry_exhausted);
    }

    /// The members' backends, in member order (for control-plane calls).
    pub(crate) fn backends(&self) -> impl Iterator<Item = &dyn ShardBackend> {
        self.members.iter().map(|member| &*member.backend)
    }

    /// The set's `!stats` summary: health, transitions, hedges.
    pub(crate) fn summary_line(&self) -> String {
        let healthy = self.members.iter().filter(|m| m.state() == ReplicaState::Closed).count();
        format!(
            "replicas={} healthy={healthy} opens={} recoveries={} probes={} hedges={} \
             hedge_wins={} retry_exhausted={}",
            self.members.len(),
            self.open_count(),
            self.recovery_count(),
            self.probe_count(),
            self.hedge_count(),
            self.hedge_win_count(),
            self.retry_exhausted_count(),
        )
    }

    /// One `!stats` line per replica, with its breaker state and load.
    pub(crate) fn replica_lines(&self) -> Vec<String> {
        self.members
            .iter()
            .map(|member| {
                format!(
                    "replica {} state={} in_flight={} rtt_p99={}us calls={}",
                    member.id,
                    member.state(),
                    member.in_flight.load(Ordering::Relaxed),
                    member.rtt.percentile(99.0).as_micros(),
                    member.rtt.count(),
                )
            })
            .collect()
    }

    /// The hedge deadline for one call, or `None` when hedging is off (or
    /// the adaptive estimate has not armed yet).
    fn hedge_delay(&self) -> Option<Duration> {
        let armed =
            self.config.adaptive_hedge && self.set_rtt.count() >= self.config.hedge_min_samples;
        self.config.hedge_after.or_else(|| armed.then(|| self.set_rtt.percentile(99.0)))
    }

    /// Begins one call and returns its pick order: closed members while any
    /// exists, else everyone, ordered by `(state, in flight, index)` — the
    /// policy is the sort key.  Every open member whose backoff elapsed
    /// turns half-open and is probed once: if it comes first (no member is
    /// closed), the primary dispatch is its probe; otherwise `probe` mirrors
    /// the batch to it and it leaves the order, so no call sends it the
    /// batch twice.  The primary request funds future retries.
    fn pick(&self, mut probe: impl FnMut(usize)) -> Vec<usize> {
        let due: Vec<bool> = self.members.iter().map(|member| member.begin_probe()).collect();
        let mut keys: Vec<(u64, u64, usize)> = self
            .members
            .iter()
            .enumerate()
            .map(|(i, m)| (m.state().as_gauge(), m.in_flight.load(Ordering::Relaxed), i))
            .collect();
        keys.sort_unstable();
        let closed = ReplicaState::Closed.as_gauge();
        let (first_state, _, primary) = keys[0];
        keys.retain(|&(state, _, index)| {
            let mirrored = due[index] && index != primary;
            if mirrored {
                probe(index);
            }
            !mirrored && (first_state != closed || state == closed)
        });
        self.retry_budget.deposit();
        keys.into_iter().map(|key| key.2).collect()
    }

    /// Queues one call on member `index`'s thread, counting it in flight.
    fn dispatch(
        &self,
        index: usize,
        batch: &Batch,
        respond: Option<(&mpsc::Sender<Reply>, usize)>,
    ) {
        self.members[index].in_flight.fetch_add(1, Ordering::Relaxed);
        let respond = respond.map(|(gather, shard)| (gather.clone(), shard));
        let task = Task { batch: Arc::clone(batch), respond };
        // A member's thread ends only when the set drops its queue.
        self.workers[index].0.send(task).expect("a member's thread outlives its set's calls");
    }

    /// Charges the retry budget for one extra dispatch; on an empty bucket
    /// records the refusal and returns `false` — the caller fails fast.
    fn charge_retry(&self) -> bool {
        if self.retry_budget.withdraw() {
            return true;
        }
        self.retry_exhausted.inc();
        false
    }
}

impl Drop for ReplicaSet {
    fn drop(&mut self) {
        // Close every queue first: each thread ends after the call in hand.
        let threads: Vec<_> = self.workers.drain(..).map(|(_, thread)| thread).collect();
        for thread in threads {
            let _ = thread.join();
        }
    }
}

/// A plain shard: a set of one, named after its backend, with
/// [`ReplicaSetConfig::default`].
impl From<Box<dyn ShardBackend>> for ReplicaSet {
    fn from(backend: Box<dyn ShardBackend>) -> Self {
        let id = backend.id();
        ReplicaSet::new(id, vec![backend], ReplicaSetConfig::default()).expect("one member")
    }
}

impl<B: ShardBackend + 'static> From<Box<B>> for ReplicaSet {
    fn from(backend: Box<B>) -> Self {
        ReplicaSet::from(backend as Box<dyn ShardBackend>)
    }
}

impl std::fmt::Debug for ReplicaSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSet")
            .field("id", &self.id)
            .field("replicas", &self.replica_states())
            .field("config", &self.config)
            .finish()
    }
}

/// One set's part in a [`gather`].
struct Call<'a> {
    set: &'a ReplicaSet,
    shard: usize,
    /// The untried members, in pick order.
    order: std::vec::IntoIter<usize>,
    /// Dispatched calls whose replies have not arrived.
    outstanding: usize,
    /// When the hedge fires, while it is armed.
    hedge_at: Option<Instant>,
    /// The member the hedge went to.
    hedged: Option<usize>,
    /// The shard's replies and the time until they were ready, once it has
    /// them.
    answer: Option<(Replies, Duration)>,
}

impl Call<'_> {
    fn untried(&self) -> bool {
        self.order.len() > 0
    }

    /// Takes the shard's answer, `rtt` after the gather began.
    fn finish(&mut self, replies: Replies, rtt: Duration) {
        if let Some(histogram) = self.set.rtt.get() {
            histogram.record(rtt);
        }
        self.answer = Some((replies, rtt));
        self.hedge_at = None;
    }

    /// Dispatches to the next untried member in pick order, returning it.
    fn dispatch_next(&mut self, batch: &Batch, gather: &mpsc::Sender<Reply>) -> Option<usize> {
        let member = self.order.next()?;
        self.outstanding += 1;
        self.set.dispatch(member, batch, Some((gather, self.shard)));
        Some(member)
    }
}

/// Asks every set for `canonicals` (with their trace `ids`) at once: the one
/// dispatcher behind the router's scatter and [`ReplicaSet::search`].
///
/// Each set's primary goes to the first member in its pick order, all
/// replies come back on one channel tagged `(shard, member)`, and one loop
/// sleeps until the next reply, the earliest armed hedge timer or
/// `deadline`.  A success finishes its shard (a loser's later reply is
/// dropped); a failure fails over to the next member if the retry budget
/// pays; a hedge timer charges the budget and dispatches.  With no deadline
/// and every set of one member, the first set is called on this thread
/// instead: then nothing can hedge or fail over while the call runs, and no
/// deadline would need it abandoned.
///
/// One entry per set: its replies and the time until they were ready (on
/// the thread that called the backend, however late this loop reads them),
/// or `None` for a set that had not answered by `deadline`.
pub(crate) fn gather(
    sets: &[ReplicaSet],
    canonicals: &[String],
    ids: &[u64],
    deadline: Option<Instant>,
) -> Vec<Option<(Replies, Duration)>> {
    let started = Instant::now();
    // Copied for the worker threads only if a call leaves this one.
    let shared = OnceCell::new();
    let batch = || shared.get_or_init(|| Arc::new((canonicals.to_vec(), ids.to_vec())));
    let (respond, replies) = mpsc::channel();
    let inline = deadline.is_none() && sets.iter().all(|set| set.members.len() == 1);
    let mut calls: Vec<Call> = sets
        .iter()
        .enumerate()
        .map(|(shard, set)| {
            let order = set.pick(|index| set.dispatch(index, batch(), None)).into_iter();
            let mut call = Call {
                set,
                shard,
                order,
                outstanding: 0,
                hedge_at: None,
                hedged: None,
                answer: None,
            };
            if !(inline && shard == 0) {
                call.dispatch_next(batch(), &respond);
                if call.untried() {
                    call.hedge_at = set.hedge_delay().map(|delay| started + delay);
                }
            }
            call
        })
        .collect();
    if let Some(call) = calls.first_mut().filter(|_| inline) {
        let member = &call.set.members[0];
        member.in_flight.fetch_add(1, Ordering::Relaxed);
        let replies = member.call(canonicals, ids);
        call.finish(replies, started.elapsed());
    }
    let mut waiting = calls.iter().filter(|call| call.answer.is_none()).count();
    while waiting > 0 {
        let wake = calls.iter().filter_map(|call| call.hedge_at).chain(deadline).min();
        let reply = match wake {
            Some(at) => replies.recv_timeout(at.saturating_duration_since(Instant::now())),
            None => Ok(replies.recv().expect("the gather holds a sender")),
        };
        let Ok((shard, member, answer, ready)) = reply else {
            // A timer: the deadline wins a tie, so no hedge leaves after it.
            let now = Instant::now();
            if deadline.is_some_and(|deadline| now >= deadline) {
                break;
            }
            for call in calls.iter_mut().filter(|call| call.hedge_at.is_some_and(|at| now >= at)) {
                call.hedge_at = None;
                // A hedge is an extra dispatch and must be paid for; an
                // empty budget leaves the call waiting on its primary.
                if call.untried() && call.set.charge_retry() {
                    call.hedged = call.dispatch_next(batch(), &respond);
                    call.set.hedges.inc();
                }
            }
            continue;
        };
        let call = &mut calls[shard];
        call.outstanding -= 1;
        if call.answer.is_some() {
            continue;
        }
        let ok = answered(&answer);
        if ok && call.hedged == Some(member) {
            call.set.hedge_wins.inc();
        }
        // Fast failover: an error needs no timer, only the next member — if
        // the retry budget can still fund one.
        if !ok && call.untried() && call.set.charge_retry() {
            call.dispatch_next(batch(), &respond);
        }
        if ok || call.outstanding == 0 {
            call.finish(answer, ready.saturating_duration_since(started));
            waiting -= 1;
        }
    }
    calls.into_iter().map(|call| call.answer).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_query::RankedHit;
    use std::sync::atomic::AtomicBool;

    /// A backend answering every query with one fixed hit, optionally after
    /// a delay.
    struct FixedShard {
        id: String,
        path: String,
        delay: Duration,
    }

    impl FixedShard {
        fn new(id: &str) -> Self {
            FixedShard { id: id.to_owned(), path: format!("{id}.txt"), delay: Duration::ZERO }
        }

        fn slow(id: &str, delay: Duration) -> Self {
            FixedShard { delay, ..FixedShard::new(id) }
        }
    }

    impl ShardBackend for FixedShard {
        fn id(&self) -> String {
            self.id.clone()
        }

        fn search(&self, _canonical: &str) -> Result<ShardReply, ShardError> {
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            Ok(ShardReply {
                hits: vec![RankedHit::new(self.path.clone(), 1, 0.0)],
                generation: 1,
                stages: Vec::new(),
            })
        }

        fn stats_line(&self) -> Result<String, ShardError> {
            Ok("queries=0".to_owned())
        }

        fn reload(&self) -> Result<String, ShardError> {
            Ok("reloaded generation=1".to_owned())
        }
    }

    /// A backend that always fails.
    struct DownShard;

    impl ShardBackend for DownShard {
        fn id(&self) -> String {
            "down".to_owned()
        }

        fn search(&self, _canonical: &str) -> Result<ShardReply, ShardError> {
            Err(ShardError::Unavailable("down".to_owned()))
        }

        fn stats_line(&self) -> Result<String, ShardError> {
            Err(ShardError::Unavailable("down".to_owned()))
        }

        fn reload(&self) -> Result<String, ShardError> {
            Err(ShardError::Rejected("down".to_owned()))
        }
    }

    fn no_hedge() -> ReplicaSetConfig {
        ReplicaSetConfig { hedge_after: None, adaptive_hedge: false, ..ReplicaSetConfig::default() }
    }

    #[test]
    fn empty_replica_set_is_rejected() {
        assert_eq!(
            ReplicaSet::new("s", vec![], ReplicaSetConfig::default()).unwrap_err(),
            ConfigError::NoShards
        );
    }

    #[test]
    fn serves_from_a_healthy_replica() {
        let set = ReplicaSet::new(
            "s",
            vec![Box::new(FixedShard::new("a")), Box::new(FixedShard::new("b"))],
            no_hedge(),
        )
        .unwrap();
        let reply = set.search("rust").unwrap();
        assert_eq!(reply.hits.len(), 1);
        assert_eq!(set.replica_states().len(), 2);
        assert!(set.replica_states().iter().all(|(_, s)| *s == ReplicaState::Closed));
    }

    #[test]
    fn one_replica_down_never_fails_a_query() {
        let set = ReplicaSet::new(
            "s",
            vec![Box::new(DownShard), Box::new(FixedShard::new("b"))],
            no_hedge(),
        )
        .unwrap();
        for _ in 0..20 {
            let reply = set.search("rust").expect("healthy replica answers");
            assert_eq!(&*reply.hits[0].path, "b.txt");
        }
        // The dead replica opened after its failure threshold and stopped
        // being tried.
        let states = set.replica_states();
        assert_eq!(states[0], ("down".to_owned(), ReplicaState::Open));
        assert_eq!(states[1].1, ReplicaState::Closed);
        assert_eq!(set.open_count(), 1);
    }

    #[test]
    fn every_replica_down_surfaces_the_error() {
        let set = ReplicaSet::new("s", vec![Box::new(DownShard), Box::new(DownShard)], no_hedge())
            .unwrap();
        let err = set.search("rust").unwrap_err();
        assert!(matches!(err, ShardError::Unavailable(_)), "{err}");
    }

    #[test]
    fn hedge_takes_the_faster_replica() {
        let set = ReplicaSet::new(
            "s",
            vec![
                Box::new(FixedShard::slow("slow", Duration::from_millis(300))),
                Box::new(FixedShard::new("fast")),
            ],
            ReplicaSetConfig {
                hedge_after: Some(Duration::from_millis(20)),
                ..ReplicaSetConfig::default()
            },
        )
        .unwrap();
        let reply = set.search("rust").unwrap();
        assert_eq!(&*reply.hits[0].path, "fast.txt");
        assert_eq!(set.hedge_count(), 1);
        assert_eq!(set.hedge_win_count(), 1);
    }

    #[test]
    fn exhausted_retry_budget_stops_failover_and_is_counted() {
        // `retry_budget_pct: 0` banks exactly one token and never refills:
        // the first failover spends it, the second is refused, so the third
        // replica is never tried.
        let set = ReplicaSet::new(
            "s",
            vec![Box::new(DownShard), Box::new(DownShard), Box::new(DownShard)],
            ReplicaSetConfig { retry_budget_pct: 0, ..no_hedge() },
        )
        .unwrap();
        let err = set.search("rust").unwrap_err();
        assert!(matches!(err, ShardError::Unavailable(_)), "{err}");
        assert_eq!(set.retry_exhausted_count(), 1);
        let line = set.summary_line();
        assert!(line.contains("retry_exhausted=1"), "{line}");
    }

    #[test]
    fn getters_and_registry_read_the_same_atomics_bound_or_not() {
        // `retry_budget_pct: 0` banks one token: the first failover spends
        // it, every later one is refused and counted.
        let set = ReplicaSet::new(
            "s",
            vec![Box::new(DownShard), Box::new(FixedShard::new("up"))],
            ReplicaSetConfig { retry_budget_pct: 0, ..no_hedge() },
        )
        .unwrap();
        // Before binding the getters already count.
        assert!(set.search("rust").is_ok());
        assert!(set.search("rust").is_err());
        assert_eq!(set.retry_exhausted_count(), 1);

        let registry = MetricsRegistry::new();
        let eager = registry.counter(Metric::RetryExhausted.row().series);
        set.bind_metrics(&registry);
        set.bind_metrics(&registry); // binding twice exposes each handle once
        let agree = |set: &ReplicaSet| {
            let snapshot = registry.snapshot();
            let per_replica = |name| -> u64 {
                set.members.iter().map(|r| snapshot.labeled_counter(name, ("replica", &r.id))).sum()
            };
            assert_eq!(snapshot.counter(HEDGES_METRIC), set.hedge_count());
            assert_eq!(snapshot.counter(HEDGE_WINS_METRIC), set.hedge_win_count());
            assert_eq!(per_replica(REPLICA_OPENS_METRIC), set.open_count());
            assert_eq!(per_replica(REPLICA_RECOVERIES_METRIC), set.recovery_count());
            assert_eq!(
                snapshot.counter(Metric::RetryExhausted.row().series),
                set.retry_exhausted_count() + eager.value()
            );
            for replica in &set.members {
                assert_eq!(
                    snapshot.labeled_gauge(REPLICA_STATE_METRIC, ("replica", &replica.id)),
                    replica.state().as_gauge()
                );
            }
        };
        // What was counted before the binding is exposed by it.
        agree(&set);
        assert_eq!(registry.snapshot().counter(Metric::RetryExhausted.row().series), 1);
        // One more refused failover opens the dead replica (its third
        // failure in a row); from then on the live one is the primary.
        assert!(set.search("rust").is_err());
        assert!(set.search("rust").is_ok());
        assert_eq!((set.open_count(), set.retry_exhausted_count()), (1, 2));
        agree(&set);
        // The same atomics, not copies kept in step: whoever adds, both read.
        set.hedges.add(40);
        set.hedge_wins.add(4);
        set.members[0].recoveries.add(2);
        agree(&set);
    }

    #[test]
    fn primary_requests_refill_the_retry_budget() {
        let budget = RetryBudget::new(50);
        // Drain the 50-token starting balance.
        for _ in 0..50 {
            assert!(budget.withdraw());
        }
        assert!(!budget.withdraw());
        // Two primary requests at 50% fund one retry.
        budget.deposit();
        budget.deposit();
        assert!(budget.withdraw());
        assert!(!budget.withdraw());
    }

    #[test]
    fn stats_line_and_status_render() {
        let set = ReplicaSet::new(
            "s",
            vec![Box::new(FixedShard::new("a")), Box::new(DownShard)],
            no_hedge(),
        )
        .unwrap();
        let line = set.summary_line();
        assert!(line.starts_with("replicas=2 healthy=2"), "{line}");
        let status = set.replica_lines();
        assert_eq!(status.len(), 2);
        assert!(status[0].starts_with("replica a state=closed"), "{}", status[0]);
    }

    #[test]
    fn reload_reports_per_replica_outcomes() {
        use crate::batch::Executor;
        use crate::route::{Router, RouterConfig};
        let set = ReplicaSet::new(
            "s",
            vec![Box::new(FixedShard::new("a")), Box::new(DownShard)],
            no_hedge(),
        )
        .unwrap();
        let detailed = Router::new(vec![set], RouterConfig::default()).unwrap().reload_answer();
        assert!(detailed.contains("# shard a reload ok: "), "{detailed}");
        assert!(detailed.contains("# shard down reload err="), "{detailed}");
        // Mixed outcome: the aggregate succeeds with a count.
        assert!(detailed.starts_with("OK reloaded shards=1/2 failed=1"), "{detailed}");
        let all_down = ReplicaSet::new("s", vec![Box::new(DownShard)], no_hedge()).unwrap();
        let answer = Router::new(vec![all_down], RouterConfig::default()).unwrap().reload_answer();
        assert!(answer.starts_with("ERR "), "{answer}");
    }

    /// A backend that fails while `down` is set, counting the calls that
    /// reach it.
    struct SwitchShard {
        id: &'static str,
        down: Arc<AtomicBool>,
        calls: Arc<AtomicU64>,
    }

    impl ShardBackend for SwitchShard {
        fn id(&self) -> String {
            self.id.to_owned()
        }

        fn search(&self, canonical: &str) -> Result<ShardReply, ShardError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if self.down.load(Ordering::SeqCst) {
                return Err(ShardError::Unavailable("down".to_owned()));
            }
            FixedShard::new(self.id).search(canonical)
        }

        fn stats_line(&self) -> Result<String, ShardError> {
            Ok("queries=0".to_owned())
        }

        fn reload(&self) -> Result<String, ShardError> {
            Ok("reloaded generation=1".to_owned())
        }
    }

    /// A set of `SwitchShard`s sharing one switch and one call counter;
    /// breakers open on the first failure and may be probed at once.
    fn switched(ids: &[&'static str]) -> (ReplicaSet, Arc<AtomicBool>, Arc<AtomicU64>) {
        let (down, calls) = (Arc::new(AtomicBool::new(true)), Arc::new(AtomicU64::new(0)));
        let members = ids
            .iter()
            .map(|&id| {
                let (down, calls) = (Arc::clone(&down), Arc::clone(&calls));
                Box::new(SwitchShard { id, down, calls }) as Box<dyn ShardBackend>
            })
            .collect();
        let config =
            ReplicaSetConfig { failure_threshold: 1, probe_backoff: Duration::ZERO, ..no_hedge() };
        (ReplicaSet::new("s", members, config).unwrap(), down, calls)
    }

    /// Waits until no member has a call in flight (a mirrored probe's
    /// reply is nobody's to wait for).
    fn drain(set: &ReplicaSet) {
        let started = Instant::now();
        while set.members.iter().any(|m| m.in_flight.load(Ordering::SeqCst) > 0) {
            assert!(started.elapsed() < Duration::from_secs(2), "a call never completed");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_lone_open_member_is_probed_by_the_primary_not_called_twice() {
        let (set, _down, calls) = switched(&["a"]);
        assert!(set.search("rust").is_err());
        assert_eq!(set.replica_states()[0].1, ReplicaState::Open);
        // The backoff has elapsed: this call is the probe, and the one call.
        assert!(set.search("rust").is_err());
        drain(&set);
        assert_eq!(calls.load(Ordering::SeqCst), 2, "the probe doubled as a second call");
        assert_eq!(set.probe_count(), 1);
    }

    #[test]
    fn with_no_member_closed_every_due_member_is_probed_once() {
        let (set, down, calls) = switched(&["a", "b"]);
        // The primary fails, the failover fails: both members open.
        assert!(set.search("rust").is_err());
        assert!(set.replica_states().iter().all(|(_, s)| *s == ReplicaState::Open));
        // Both are back.  One query: the primary is `a`'s probe, and the
        // batch is mirrored to `b` as its probe.
        down.store(false, Ordering::SeqCst);
        assert!(set.search("rust").is_ok());
        drain(&set);
        let states = set.replica_states();
        assert!(states.iter().all(|(_, s)| *s == ReplicaState::Closed), "{states:?}");
        assert_eq!((set.probe_count(), calls.load(Ordering::SeqCst)), (2, 4));
    }
}
