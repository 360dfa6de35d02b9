//! Replicated shard backends: health gating, load-aware replica pick, and
//! hedged requests.
//!
//! A [`ReplicaSet`] puts N replicas — any mix of
//! [`LocalShards`](crate::route::LocalShards) and
//! [`RemoteShard`](crate::route::RemoteShard) — behind one logical
//! [`ShardBackend`], so the [`Router`](crate::route::Router) keeps treating
//! the shard as a single participant in every scatter while the set handles
//! fault tolerance underneath:
//!
//! * **Least-loaded pick.**  Each call routes to the healthy replica with the
//!   fewest requests in flight (queued included), chosen through a min-heap
//!   over per-replica in-flight counts — the load-aware executor pattern.
//!   Ties break toward the lowest replica index, so a single-client workload
//!   is deterministic.
//! * **Health gating.**  Every replica carries a circuit-breaker state
//!   machine: `closed` (serving) → `open` after
//!   [`failure_threshold`](ReplicaSetConfig::failure_threshold) consecutive
//!   failed calls → `half-open` once the probe backoff elapses, at which
//!   point one live query is mirrored to the replica as a probe.  A probe
//!   success closes the replica again; a probe failure re-opens it with the
//!   backoff doubled (capped at [`max_backoff`](ReplicaSetConfig::max_backoff)).
//!   Open replicas are skipped by the pick, so a known-dead backend costs
//!   zero connect timeouts on the hot path.
//! * **Hedged requests.**  When the chosen replica has not answered within a
//!   deadline — fixed via [`hedge_after`](ReplicaSetConfig::hedge_after), or
//!   derived from the set's rolling round-trip p99 once
//!   [`hedge_min_samples`](ReplicaSetConfig::hedge_min_samples) calls have
//!   been observed — the call is re-issued to the next least-loaded healthy
//!   replica and the first answer wins.  The loser's reply is drained by its
//!   replica's `BackendWorker` — the same per-backend worker thread the
//!   router fans out through — and dropped; `hedges=`/`hedge_wins=` count
//!   both sides.
//!
//! Errors fail over immediately (no deadline needed): a replica whose whole
//! batch failed marks a failure against its breaker and the call retries the
//! next untried replica.  Only when every replica has failed does the caller
//! see an error — so with one of two replicas down, zero queries fail and
//! none are `partial=true`.
//!
//! Hedges and failovers both draw from a **retry budget** — a token bucket
//! deposited [`retry_budget_pct`](ReplicaSetConfig::retry_budget_pct)
//! percent of a token per primary request and charged one token per extra
//! dispatch.  Under a correlated failure (every replica slow or down) the
//! budget drains and further calls fail fast instead of multiplying load by
//! the replica count exactly when the shard is least able to absorb it;
//! each refused dispatch increments `dsearch_retry_budget_exhausted_total`.
//!
//! Metrics surface through [`ShardBackend::bind_metrics`]: a
//! `dsearch_replica_state{replica=…}` gauge (0 = closed, 1 = half-open,
//! 2 = open), `dsearch_replica_opens_total` / `dsearch_replica_recoveries_total`
//! transition counters, and set-wide `dsearch_hedges_total` /
//! `dsearch_hedge_wins_total`.  Each is kept once: the set counts into its
//! own handles from construction, and binding hands those same handles to
//! the registry (`adopt_counter` / `adopt_gauge`), so the getters below and a
//! `!metrics` scrape read the same atomics.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dsearch_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::engine::ConfigError;
use crate::route::{
    control_fanout, BackendWorker, GatherSender, ShardBackend, ShardError, ShardReply, TimedReplies,
};
use crate::stats::Metric;

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

    /// The state encoded for the `dsearch_replica_state` gauge.
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
        let cap = self.cap;
        let deposit = self.deposit;
        let _ = self.balance.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |balance| {
            Some((balance + deposit).min(cap))
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

/// Everything a replica's worker thread (through its completion hook) and
/// the set share about one replica.
struct ReplicaShared {
    backend: Arc<dyn ShardBackend>,
    id: String,
    /// Requests dispatched but not yet completed (queued included), the load
    /// signal for the pick.
    in_flight: AtomicU64,
    health: Mutex<Health>,
    /// This replica's own round trips (successful calls only).
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

impl ReplicaShared {
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

    /// The worker's completion hook: one call less in flight, and the
    /// breaker's verdict on it.  An empty batch proves nothing; a batch where
    /// every query failed is a replica failure (per-query rejections leave
    /// the breaker alone).
    fn complete(&self, (replies, rtt): &TimedReplies) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        if replies.is_empty() || replies.iter().any(Result::is_ok) {
            self.note_success();
            self.rtt.record(*rtt);
            self.set_rtt.record(*rtt);
        } else {
            self.note_failure();
        }
    }

    /// Moves an open replica whose backoff elapsed to half-open, returning
    /// `true` exactly once per probe window (the caller dispatches the
    /// probe).
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
}

/// N replicas behind one logical shard: least-loaded healthy pick, circuit
/// breaking, and hedged requests.  See the module docs for the full model.
pub struct ReplicaSet {
    id: String,
    replicas: Vec<Arc<ReplicaShared>>,
    workers: Vec<BackendWorker>,
    config: ReplicaSetConfig,
    /// Set-wide rolling round trips; feeds the adaptive hedge deadline.
    set_rtt: Arc<Histogram>,
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
        let replicas: Vec<Arc<ReplicaShared>> = replicas
            .into_iter()
            .map(|backend| {
                let backend: Arc<dyn ShardBackend> = Arc::from(backend);
                Arc::new(ReplicaShared {
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
        let workers = replicas
            .iter()
            .map(|replica| {
                let shared = Arc::clone(replica);
                BackendWorker::spawn(Arc::clone(&replica.backend), move |timed| {
                    shared.complete(timed);
                })
            })
            .collect();
        Ok(ReplicaSet {
            id: id.into(),
            replicas,
            workers,
            config,
            set_rtt,
            hedges: Arc::default(),
            hedge_wins: Arc::default(),
            retry_budget: RetryBudget::new(config.retry_budget_pct),
            retry_exhausted: Arc::default(),
        })
    }

    /// Number of replicas in the set.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Each replica's id and current breaker state.
    #[must_use]
    pub fn replica_states(&self) -> Vec<(String, ReplicaState)> {
        self.replicas.iter().map(|r| (r.id.clone(), r.state())).collect()
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
        self.replicas.iter().map(|r| r.opens.value()).sum()
    }

    /// Recoveries (→closed from open/half-open) across all replicas.
    #[must_use]
    pub fn recovery_count(&self) -> u64 {
        self.replicas.iter().map(|r| r.recoveries.value()).sum()
    }

    /// Probes dispatched across all replicas.
    #[must_use]
    pub fn probe_count(&self) -> u64 {
        self.replicas.iter().map(|r| r.probes.value()).sum()
    }

    /// The hedge deadline for one call, or `None` when hedging is off (or
    /// the adaptive estimate has not armed yet).
    fn hedge_delay(&self) -> Option<Duration> {
        if let Some(fixed) = self.config.hedge_after {
            return Some(fixed);
        }
        if !self.config.adaptive_hedge || self.set_rtt.count() < self.config.hedge_min_samples {
            return None;
        }
        Some(self.set_rtt.percentile(99.0))
    }

    /// Queues a call on `index`'s worker, counting it in flight.  `false`
    /// when the worker is gone (only during shutdown).
    fn dispatch(
        &self,
        index: usize,
        canonicals: &Arc<Vec<String>>,
        ids: &Arc<Vec<u64>>,
        respond: Option<&GatherSender>,
    ) -> bool {
        self.replicas[index].in_flight.fetch_add(1, Ordering::Relaxed);
        let sent = self.workers[index].dispatch(canonicals, ids, respond, index);
        if !sent {
            self.replicas[index].in_flight.fetch_sub(1, Ordering::Relaxed);
        }
        sent
    }

    /// Mirrors the live batch to every open replica whose backoff elapsed,
    /// as a half-open probe (reply dropped; only health updates).
    fn dispatch_due_probes(&self, canonicals: &Arc<Vec<String>>, ids: &Arc<Vec<u64>>) {
        if canonicals.is_empty() {
            return;
        }
        for (index, replica) in self.replicas.iter().enumerate() {
            if replica.begin_probe() && !self.dispatch(index, canonicals, ids, None) {
                // Worker gone (shutdown): undo the half-open transition.
                replica.note_failure();
            }
        }
    }

    /// Candidate replicas as a min-heap of `(in_flight, index)`: healthy
    /// (closed) replicas when any exist, otherwise everyone — a set with no
    /// healthy replica still tries rather than refusing outright, and a
    /// success closes the breaker again.
    fn candidates(&self) -> BinaryHeap<Reverse<(u64, usize)>> {
        let closed: BinaryHeap<Reverse<(u64, usize)>> = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.state() == ReplicaState::Closed)
            .map(|(i, r)| Reverse((r.in_flight.load(Ordering::Relaxed), i)))
            .collect();
        if !closed.is_empty() {
            return closed;
        }
        self.replicas
            .iter()
            .enumerate()
            .map(|(i, r)| Reverse((r.in_flight.load(Ordering::Relaxed), i)))
            .collect()
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

    /// The serving path: probe, pick, dispatch, hedge, fail over.
    fn call(&self, canonicals: &[String], ids: &[u64]) -> Vec<Result<ShardReply, ShardError>> {
        if canonicals.is_empty() {
            return Vec::new();
        }
        let canonicals = Arc::new(canonicals.to_vec());
        let ids = Arc::new(ids.to_vec());
        self.dispatch_due_probes(&canonicals, &ids);

        let (respond, gathered) = mpsc::channel();
        let mut heap = self.candidates();
        let mut dispatched = 0usize;
        let mut completed = 0usize;
        while let Some(Reverse((_, primary))) = heap.pop() {
            if self.dispatch(primary, &canonicals, &ids, Some(&respond)) {
                dispatched = 1;
                break;
            }
        }
        if dispatched == 0 {
            return self.all_unavailable(&canonicals, "no replica worker available");
        }
        // The primary dispatch funds future retries; hedges and failovers
        // below each cost a whole token.
        self.retry_budget.deposit();

        // The hedge timer arms only while a second candidate exists; once the
        // hedge fires (or there is nothing to hedge to) waits are plain
        // blocking receives.
        let mut hedge_at: Option<Instant> = if heap.is_empty() {
            None
        } else {
            self.hedge_delay().map(|delay| Instant::now() + delay)
        };
        let mut hedge_index: Option<usize> = None;
        let mut last_failure: Option<Vec<Result<ShardReply, ShardError>>> = None;
        loop {
            let received = match hedge_at {
                Some(at) if hedge_index.is_none() => {
                    match gathered.recv_timeout(at.saturating_duration_since(Instant::now())) {
                        Ok(reply) => Some(reply),
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            // A hedge is an extra dispatch: it must be paid
                            // for.  An empty budget disarms the timer and
                            // the call simply keeps waiting on the primary.
                            if self.charge_retry() {
                                while let Some(Reverse((_, next))) = heap.pop() {
                                    if self.dispatch(next, &canonicals, &ids, Some(&respond)) {
                                        hedge_index = Some(next);
                                        dispatched += 1;
                                        self.hedges.inc();
                                        break;
                                    }
                                }
                            }
                            if hedge_index.is_none() {
                                hedge_at = None;
                            }
                            continue;
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => None,
                    }
                }
                _ => gathered.recv().ok(),
            };
            // Workers never drop a task without responding (panics are
            // caught), so a disconnect here means shutdown raced the call.
            let Some((index, (replies, _rtt))) = received else {
                return last_failure
                    .unwrap_or_else(|| self.all_unavailable(&canonicals, "replica set shut down"));
            };
            completed += 1;
            if replies.iter().any(Result::is_ok) {
                if hedge_index == Some(index) {
                    self.hedge_wins.inc();
                }
                return replies;
            }
            last_failure = Some(replies);
            // Fast failover: an error needs no deadline, just the next
            // untried replica — if the retry budget can still fund one.
            // An empty budget fails the call fast with the failure in hand
            // instead of walking every remaining replica.
            if !heap.is_empty() && self.charge_retry() {
                while let Some(Reverse((_, next))) = heap.pop() {
                    if self.dispatch(next, &canonicals, &ids, Some(&respond)) {
                        dispatched += 1;
                        break;
                    }
                }
            }
            if completed == dispatched {
                return last_failure.expect("at least one reply observed");
            }
        }
    }

    fn all_unavailable(
        &self,
        canonicals: &[String],
        why: &str,
    ) -> Vec<Result<ShardReply, ShardError>> {
        vec![Err(ShardError::Unavailable(format!("{}: {why}", self.id))); canonicals.len()]
    }
}

impl ShardBackend for ReplicaSet {
    fn id(&self) -> String {
        self.id.clone()
    }

    fn search(&self, canonical: &str) -> Result<ShardReply, ShardError> {
        self.call(std::slice::from_ref(&canonical.to_owned()), &[0])
            .pop()
            .expect("one query in, one reply out")
    }

    fn search_batch(&self, canonicals: &[String]) -> Vec<Result<ShardReply, ShardError>> {
        self.call(canonicals, &vec![0; canonicals.len()])
    }

    fn search_batch_traced(
        &self,
        canonicals: &[String],
        ids: &[u64],
    ) -> Vec<Result<ShardReply, ShardError>> {
        self.call(canonicals, ids)
    }

    fn stats_line(&self) -> Result<String, ShardError> {
        let healthy = self.replicas.iter().filter(|r| r.state() == ReplicaState::Closed).count();
        Ok(format!(
            "replicas={} healthy={healthy} opens={} recoveries={} probes={} hedges={} \
             hedge_wins={} retry_exhausted={}",
            self.replicas.len(),
            self.open_count(),
            self.recovery_count(),
            self.probe_count(),
            self.hedge_count(),
            self.hedge_win_count(),
            self.retry_exhausted_count(),
        ))
    }

    fn reload(&self) -> Result<String, ShardError> {
        let outcomes = self.reload_detailed();
        let ok = outcomes.iter().filter(|(_, r)| r.is_ok()).count();
        if ok == 0 {
            let (_, first) = outcomes.into_iter().next().expect("sets are never empty");
            return first;
        }
        Ok(format!("reloaded replicas={ok}/{}", self.replicas.len()))
    }

    fn reload_detailed(&self) -> Vec<(String, Result<String, ShardError>)> {
        control_fanout(
            self.replicas.iter().map(|replica| &replica.backend),
            |backend| backend.reload(),
            || Err(ShardError::Unavailable("replica backend panicked".to_owned())),
        )
    }

    fn replica_status(&self) -> Vec<String> {
        self.replicas
            .iter()
            .map(|replica| {
                format!(
                    "replica {} state={} in_flight={} rtt_p99={}us calls={}",
                    replica.id,
                    replica.state(),
                    replica.in_flight.load(Ordering::Relaxed),
                    replica.rtt.percentile(99.0).as_micros(),
                    replica.rtt.count(),
                )
            })
            .collect()
    }

    fn bind_metrics(&self, registry: &MetricsRegistry) {
        for replica in &self.replicas {
            let label = Some(("replica", replica.id.as_str()));
            registry.adopt_gauge(REPLICA_STATE_METRIC, label, &replica.state_gauge);
            registry.adopt_counter(REPLICA_OPENS_METRIC, label, &replica.opens);
            registry.adopt_counter(REPLICA_RECOVERIES_METRIC, label, &replica.recoveries);
        }
        // Unlabelled: every set bound to one registry adds into the same
        // series, the last beside the handle the router's `ServerStats`
        // registered eagerly — so refusals surface in the router's `!stats`
        // (`retry_exhausted=`) and `!metrics` directly.
        registry.adopt_counter(HEDGES_METRIC, None, &self.hedges);
        registry.adopt_counter(HEDGE_WINS_METRIC, None, &self.hedge_wins);
        registry.adopt_counter(Metric::RetryExhausted.row().series, None, &self.retry_exhausted);
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

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_query::RankedHit;

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
        let line = set.stats_line().unwrap();
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
                set.replicas
                    .iter()
                    .map(|r| snapshot.labeled_counter(name, ("replica", &r.id)))
                    .sum()
            };
            assert_eq!(snapshot.counter(HEDGES_METRIC), set.hedge_count());
            assert_eq!(snapshot.counter(HEDGE_WINS_METRIC), set.hedge_win_count());
            assert_eq!(per_replica(REPLICA_OPENS_METRIC), set.open_count());
            assert_eq!(per_replica(REPLICA_RECOVERIES_METRIC), set.recovery_count());
            assert_eq!(
                snapshot.counter(Metric::RetryExhausted.row().series),
                set.retry_exhausted_count() + eager.value()
            );
            for replica in &set.replicas {
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
        set.replicas[0].recoveries.add(2);
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
        let line = set.stats_line().unwrap();
        assert!(line.starts_with("replicas=2 healthy=2"), "{line}");
        let status = set.replica_status();
        assert_eq!(status.len(), 2);
        assert!(status[0].starts_with("replica a state=closed"), "{}", status[0]);
    }

    #[test]
    fn reload_reports_per_replica_outcomes() {
        let set = ReplicaSet::new(
            "s",
            vec![Box::new(FixedShard::new("a")), Box::new(DownShard)],
            no_hedge(),
        )
        .unwrap();
        let detailed = set.reload_detailed();
        assert_eq!(detailed.len(), 2);
        assert!(detailed.iter().any(|(id, r)| id == "a" && r.is_ok()));
        assert!(detailed.iter().any(|(id, r)| id == "down" && r.is_err()));
        // Mixed outcome: the aggregate succeeds with a count.
        assert_eq!(set.reload().unwrap(), "reloaded replicas=1/2");
        let all_down = ReplicaSet::new("s", vec![Box::new(DownShard)], no_hedge()).unwrap();
        assert!(all_down.reload().is_err());
    }
}
