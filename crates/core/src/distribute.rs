//! Work distribution for Stage 2.
//!
//! Section 2.1 of the paper lists the options considered for handing files to
//! the term extractors: work queues, round-robin distribution, assignment
//! based on file lengths, and work stealing.  The paper settled on round-robin
//! into *k* private vectors — no synchronisation at all during extraction —
//! after finding it faster than size-aware assignment.  All the alternatives
//! are implemented here so the ablation benchmark can reproduce that
//! comparison:
//!
//! * [`DistributionStrategy::RoundRobin`] — file *i* goes to vector *i mod k*;
//! * [`DistributionStrategy::SizeBalanced`] — longest-processing-time-first
//!   bin packing on file sizes;
//! * [`DistributionStrategy::Chunked`] — contiguous slices (the naive split);
//! * [`LeaseQueue`] — a shared lock-protected queue the extractors lease
//!   from (dynamic load balancing paid for with per-file locking); the
//!   checkpointed [`BuildPipeline`](crate::pipeline::BuildPipeline) runs on
//!   the same queue, with its retry timer.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use dsearch_index::FileId;
use dsearch_vfs::VPath;

/// One unit of Stage 2 work: a file to scan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkItem {
    /// Id assigned by Stage 1.
    pub file_id: FileId,
    /// Path of the file.
    pub path: VPath,
    /// Size in bytes (from the directory walk).
    pub size: u64,
}

/// Static distribution strategies (files are assigned before extraction
/// starts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DistributionStrategy {
    /// Round-robin assignment (the paper's choice).
    #[default]
    RoundRobin,
    /// Longest-processing-time-first assignment by file size.
    SizeBalanced,
    /// Contiguous chunks of the file list.
    Chunked,
    /// A shared work queue popped by the extractors (dynamic; involves one
    /// lock operation per file).
    WorkQueue,
    /// Per-extractor deques with work stealing: each extractor owns a local
    /// deque (filled round-robin) and steals from the others once its own is
    /// empty — the last of the four options Section 2.1 of the paper lists.
    WorkStealing,
}

impl DistributionStrategy {
    /// All strategies, for sweeps and ablations.
    pub const ALL: [DistributionStrategy; 5] = [
        DistributionStrategy::RoundRobin,
        DistributionStrategy::SizeBalanced,
        DistributionStrategy::Chunked,
        DistributionStrategy::WorkQueue,
        DistributionStrategy::WorkStealing,
    ];

    /// Whether the strategy requires synchronisation between extractors
    /// (a shared queue or stealable deques) instead of private vectors.
    #[must_use]
    pub fn is_dynamic(self) -> bool {
        matches!(self, DistributionStrategy::WorkQueue | DistributionStrategy::WorkStealing)
    }
}

impl std::fmt::Display for DistributionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DistributionStrategy::RoundRobin => "round-robin",
            DistributionStrategy::SizeBalanced => "size-balanced",
            DistributionStrategy::Chunked => "chunked",
            DistributionStrategy::WorkQueue => "work-queue",
            DistributionStrategy::WorkStealing => "work-stealing",
        };
        f.write_str(name)
    }
}

/// Statically partitions `items` into `workers` private vectors.
///
/// For [`DistributionStrategy::WorkQueue`] the partition is round-robin (the
/// caller should use a [`LeaseQueue`] instead; this fallback keeps the
/// function total).
///
/// # Panics
///
/// Panics if `workers` is zero.
#[must_use]
pub fn partition(
    items: Vec<WorkItem>,
    workers: usize,
    strategy: DistributionStrategy,
) -> Vec<Vec<WorkItem>> {
    assert!(workers > 0, "cannot partition work across zero workers");
    match strategy {
        DistributionStrategy::RoundRobin
        | DistributionStrategy::WorkQueue
        | DistributionStrategy::WorkStealing => {
            let mut parts: Vec<Vec<WorkItem>> =
                (0..workers).map(|_| Vec::with_capacity(items.len() / workers + 1)).collect();
            for (i, item) in items.into_iter().enumerate() {
                parts[i % workers].push(item);
            }
            parts
        }
        DistributionStrategy::Chunked => {
            let chunk = items.len().div_ceil(workers).max(1);
            let mut parts: Vec<Vec<WorkItem>> = Vec::with_capacity(workers);
            let mut iter = items.into_iter().peekable();
            for _ in 0..workers {
                let mut part = Vec::with_capacity(chunk);
                for _ in 0..chunk {
                    match iter.next() {
                        Some(item) => part.push(item),
                        None => break,
                    }
                }
                parts.push(part);
            }
            // Any remainder (only when chunk*workers < len, impossible with
            // div_ceil) — defensive drain.
            if iter.peek().is_some() {
                parts.last_mut().expect("workers > 0").extend(iter);
            }
            parts
        }
        DistributionStrategy::SizeBalanced => {
            // Longest-processing-time-first greedy bin packing.
            let mut indexed: Vec<WorkItem> = items;
            indexed.sort_by(|a, b| b.size.cmp(&a.size).then_with(|| a.file_id.cmp(&b.file_id)));
            let mut parts: Vec<Vec<WorkItem>> = (0..workers).map(|_| Vec::new()).collect();
            let mut loads = vec![0u64; workers];
            for item in indexed {
                let (lightest, _) = loads
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, &load)| (load, *i))
                    .expect("workers > 0");
                loads[lightest] += item.size;
                parts[lightest].push(item);
            }
            parts
        }
    }
}

/// Measures how evenly a partition spreads bytes across workers.
///
/// Returns `(max_bytes, min_bytes, imbalance)` where `imbalance` is
/// `max / mean` (1.0 = perfectly balanced). An empty partition yields
/// `(0, 0, 1.0)`.
#[must_use]
pub fn balance_metrics(parts: &[Vec<WorkItem>]) -> (u64, u64, f64) {
    if parts.is_empty() {
        return (0, 0, 1.0);
    }
    let loads: Vec<u64> = parts.iter().map(|p| p.iter().map(|w| w.size).sum()).collect();
    let max = *loads.iter().max().unwrap_or(&0);
    let min = *loads.iter().min().unwrap_or(&0);
    let total: u64 = loads.iter().sum();
    let mean = total as f64 / loads.len() as f64;
    let imbalance = if mean == 0.0 { 1.0 } else { max as f64 / mean };
    (max, min, imbalance)
}

/// How many times [`DistributionStrategy::WorkQueue`] leases an item whose
/// holders panic before the queue refuses to hand it out again.
pub const MAX_LEASE_ATTEMPTS: u32 = 3;

type Attempt = (WorkItem, u32);

#[derive(Debug, Default)]
struct QueueInner {
    ready: VecDeque<Attempt>,
    delayed: Vec<(Instant, Attempt)>,
    leased: usize,
    closed: bool,
    /// Items whose lease holder died too many times; drained into the DLQ.
    fallen: Vec<Attempt>,
    reclaims: u64,
}

/// The build side's shared work queue: lease, ack, retry, reclaim.
///
/// Every [`pop`](LeaseQueue::pop) takes the lock once — exactly the
/// per-filename synchronisation cost the paper measured when running Stage 1
/// concurrently with Stage 2.  Items are handed out under a [`Lease`], so a
/// consumer that panics between taking a file and inserting it into the
/// index does not silently lose it.  Ready items are leased FIFO; retried
/// items wait in a timer set until their backoff expires (workers never
/// sleep on a retry).  The queue drains when ready, delayed and leased are
/// all empty, and closes early on cancellation or a fatal error.
#[derive(Debug)]
pub struct LeaseQueue {
    inner: StdMutex<QueueInner>,
    available: Condvar,
    max_attempts: u32,
}

impl LeaseQueue {
    /// Creates a queue over `items`; an item whose lease holders died
    /// `max_attempts` times is not handed out again
    /// ([`take_fallen`](LeaseQueue::take_fallen)).
    #[must_use]
    pub fn new(items: Vec<WorkItem>, max_attempts: u32) -> Arc<Self> {
        let inner = QueueInner {
            ready: items.into_iter().map(|i| (i, 0)).collect(),
            ..QueueInner::default()
        };
        Arc::new(LeaseQueue {
            inner: StdMutex::new(inner),
            available: Condvar::new(),
            max_attempts: max_attempts.max(1),
        })
    }

    /// Locks the queue state, recovering from a poisoned mutex — a worker
    /// that died mid-operation must not wedge the survivors.
    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until an item is available, the queue drains, or it is closed.
    pub fn pop(self: &Arc<Self>) -> Option<Lease> {
        let mut inner = self.lock();
        loop {
            if inner.closed {
                return None;
            }
            let now = Instant::now();
            // Promote delayed items whose backoff has expired.
            let mut i = 0;
            while i < inner.delayed.len() {
                if inner.delayed[i].0 <= now {
                    let (_, item) = inner.delayed.swap_remove(i);
                    inner.ready.push_back(item);
                } else {
                    i += 1;
                }
            }
            if let Some(slot) = inner.ready.pop_front() {
                inner.leased += 1;
                return Some(Lease { queue: Arc::clone(self), slot: Some(slot) });
            }
            if inner.delayed.is_empty() && inner.leased == 0 {
                return None;
            }
            if let Some(earliest) = inner.delayed.iter().map(|(at, _)| *at).min() {
                let wait = earliest.saturating_duration_since(now);
                inner = self
                    .available
                    .wait_timeout(inner, wait)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            } else {
                inner = self.available.wait(inner).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Closes the queue: blocked and future pops return `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// `true` once the queue has been closed (early stop, cancel or error).
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Leases reclaimed from dead holders so far.
    #[must_use]
    pub fn reclaims(&self) -> u64 {
        self.lock().reclaims
    }

    /// Drains the items whose holders died `max_attempts` times — work no
    /// consumer could complete — with the attempts on their record.
    #[must_use]
    pub fn take_fallen(&self) -> Vec<(WorkItem, u32)> {
        std::mem::take(&mut self.lock().fallen)
    }

    fn finish_lease(&self) {
        let mut inner = self.lock();
        inner.leased -= 1;
        drop(inner);
        self.available.notify_all();
    }

    fn schedule_retry(&self, item: WorkItem, attempts: u32, not_before: Instant) {
        let mut inner = self.lock();
        inner.leased -= 1;
        inner.delayed.push((not_before, (item, attempts)));
        drop(inner);
        self.available.notify_all();
    }

    fn release(&self, slot: Attempt) {
        let mut inner = self.lock();
        inner.leased -= 1;
        inner.ready.push_front(slot);
        drop(inner);
        self.available.notify_all();
    }

    fn reclaim(&self, item: WorkItem, attempts: u32) {
        let mut inner = self.lock();
        inner.leased -= 1;
        inner.reclaims += 1;
        if attempts + 1 >= self.max_attempts {
            inner.fallen.push((item, attempts + 1));
        } else {
            inner.ready.push_front((item, attempts + 1));
        }
        drop(inner);
        self.available.notify_all();
    }
}

/// RAII lease on one work item.  Dropping the lease without acknowledging it
/// (a panic, a dead worker) returns the item to the queue with one more
/// failed attempt on its record.
#[derive(Debug)]
pub struct Lease {
    queue: Arc<LeaseQueue>,
    slot: Option<Attempt>,
}

impl Lease {
    /// The leased work item.
    #[must_use]
    pub fn item(&self) -> &WorkItem {
        &self.slot.as_ref().expect("lease not yet resolved").0
    }

    /// Failed attempts already on this item's record.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.slot.as_ref().expect("lease not yet resolved").1
    }

    /// Acknowledges the item as done (or dead-lettered); it will not be
    /// handed out again.
    pub fn ack(mut self) -> WorkItem {
        let (item, _) = self.slot.take().expect("lease not yet resolved");
        self.queue.finish_lease();
        item
    }

    /// Reschedules the item after a transient failure; it becomes leasable
    /// again at `not_before`.
    pub fn retry_at(mut self, not_before: Instant) {
        let (item, attempts) = self.slot.take().expect("lease not yet resolved");
        self.queue.schedule_retry(item, attempts + 1, not_before);
    }

    /// Returns the item untouched (no attempt recorded) — used when a worker
    /// observes cancellation after leasing.
    pub fn release(mut self) {
        let slot = self.slot.take().expect("lease not yet resolved");
        self.queue.release(slot);
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some((item, attempts)) = self.slot.take() {
            self.queue.reclaim(item, attempts);
        }
    }
}

/// One extractor's handle into the work-stealing pool.
///
/// The extractor pops from its own deque first (LIFO, cache-friendly) and,
/// once that is empty, steals batches from its peers — the dynamic
/// load-balancing alternative the paper lists in Section 2.1 that needs no
/// central lock.
#[derive(Debug)]
pub struct StealWorker {
    local: crossbeam::deque::Worker<WorkItem>,
    peers: Vec<crossbeam::deque::Stealer<WorkItem>>,
}

impl StealWorker {
    /// Takes the next item: the local deque first, then any peer.
    ///
    /// Returns `None` only when every deque in the pool is empty.
    #[must_use]
    pub fn pop(&self) -> Option<WorkItem> {
        if let Some(item) = self.local.pop() {
            return Some(item);
        }
        loop {
            let mut retry = false;
            for stealer in &self.peers {
                match stealer.steal_batch_and_pop(&self.local) {
                    crossbeam::deque::Steal::Success(item) => return Some(item),
                    crossbeam::deque::Steal::Retry => retry = true,
                    crossbeam::deque::Steal::Empty => {}
                }
            }
            if !retry {
                return None;
            }
        }
    }

    /// Number of items currently in this worker's local deque.
    #[must_use]
    pub fn local_len(&self) -> usize {
        self.local.len()
    }
}

/// Builds the per-extractor deques for [`DistributionStrategy::WorkStealing`].
///
/// Items are dealt round-robin into `workers` deques; every returned
/// [`StealWorker`] can steal from all the others.
///
/// # Panics
///
/// Panics if `workers` is zero.
#[must_use]
pub fn stealing_pool(items: Vec<WorkItem>, workers: usize) -> Vec<StealWorker> {
    assert!(workers > 0, "cannot build a stealing pool with zero workers");
    let locals: Vec<crossbeam::deque::Worker<WorkItem>> =
        (0..workers).map(|_| crossbeam::deque::Worker::new_fifo()).collect();
    for (i, item) in items.into_iter().enumerate() {
        locals[i % workers].push(item);
    }
    let stealers: Vec<crossbeam::deque::Stealer<WorkItem>> =
        locals.iter().map(crossbeam::deque::Worker::stealer).collect();
    locals
        .into_iter()
        .enumerate()
        .map(|(i, local)| {
            let peers = stealers
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, s)| s.clone())
                .collect();
            StealWorker { local, peers }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use proptest::prelude::*;

    fn items(sizes: &[u64]) -> Vec<WorkItem> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| WorkItem {
                file_id: FileId(i as u32),
                path: VPath::new(format!("f{i}.txt")),
                size,
            })
            .collect()
    }

    #[test]
    fn round_robin_interleaves() {
        let parts = partition(items(&[1, 2, 3, 4, 5]), 2, DistributionStrategy::RoundRobin);
        assert_eq!(parts.len(), 2);
        let ids: Vec<Vec<u32>> =
            parts.iter().map(|p| p.iter().map(|w| w.file_id.as_u32()).collect()).collect();
        assert_eq!(ids, vec![vec![0, 2, 4], vec![1, 3]]);
    }

    #[test]
    fn chunked_keeps_contiguity() {
        let parts = partition(items(&[0; 7]), 3, DistributionStrategy::Chunked);
        let ids: Vec<Vec<u32>> =
            parts.iter().map(|p| p.iter().map(|w| w.file_id.as_u32()).collect()).collect();
        assert_eq!(ids, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]]);
    }

    #[test]
    fn size_balanced_beats_round_robin_on_skewed_sizes() {
        // One huge file and many small ones — the scenario the paper's
        // benchmark (five large files) creates.
        let mut sizes = vec![1_000_000u64];
        sizes.extend(std::iter::repeat_n(1_000, 99));
        let rr = partition(items(&sizes), 4, DistributionStrategy::RoundRobin);
        let sb = partition(items(&sizes), 4, DistributionStrategy::SizeBalanced);
        let (_, _, rr_imbalance) = balance_metrics(&rr);
        let (_, _, sb_imbalance) = balance_metrics(&sb);
        assert!(sb_imbalance <= rr_imbalance);
        assert!(sb_imbalance < 3.9, "LPT should spread the load, got {sb_imbalance}");
    }

    #[test]
    fn single_worker_gets_everything() {
        for strategy in DistributionStrategy::ALL {
            let parts = partition(items(&[5, 6, 7]), 1, strategy);
            assert_eq!(parts.len(), 1);
            assert_eq!(parts[0].len(), 3, "strategy {strategy}");
        }
    }

    #[test]
    fn more_workers_than_items_leaves_empty_parts() {
        let parts = partition(items(&[1, 2]), 5, DistributionStrategy::RoundRobin);
        assert_eq!(parts.len(), 5);
        assert_eq!(parts.iter().filter(|p| !p.is_empty()).count(), 2);
    }

    #[test]
    #[should_panic(expected = "zero workers")]
    fn zero_workers_panics() {
        let _ = partition(items(&[1]), 0, DistributionStrategy::RoundRobin);
    }

    #[test]
    fn balance_metrics_edge_cases() {
        assert_eq!(balance_metrics(&[]), (0, 0, 1.0));
        let parts = vec![Vec::new(), Vec::new()];
        let (max, min, imbalance) = balance_metrics(&parts);
        assert_eq!((max, min), (0, 0));
        assert!((imbalance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn strategy_display_and_dynamic_flag() {
        assert_eq!(DistributionStrategy::RoundRobin.to_string(), "round-robin");
        assert_eq!(DistributionStrategy::WorkQueue.to_string(), "work-queue");
        assert_eq!(DistributionStrategy::WorkStealing.to_string(), "work-stealing");
        assert!(DistributionStrategy::WorkQueue.is_dynamic());
        assert!(DistributionStrategy::WorkStealing.is_dynamic());
        assert!(!DistributionStrategy::RoundRobin.is_dynamic());
    }

    #[test]
    fn stealing_pool_delivers_every_item_exactly_once() {
        let workers = stealing_pool(items(&[1; 50]), 4);
        assert_eq!(workers.len(), 4);
        assert!(workers.iter().all(|w| w.local_len() >= 12));

        let consumed = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for worker in workers {
                let consumed = Arc::clone(&consumed);
                scope.spawn(move || {
                    while let Some(item) = worker.pop() {
                        consumed.lock().push(item.file_id.as_u32());
                    }
                });
            }
        });
        let mut seen = consumed.lock().clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn idle_stealer_takes_work_from_a_loaded_peer() {
        // Round-robin puts 10 items in each deque.  If worker 1 alone drains
        // the pool it must steal worker 0's share once its own runs out.
        let workers = stealing_pool(items(&[1; 20]), 2);
        let mut drained = 0;
        while workers[1].pop().is_some() {
            drained += 1;
        }
        assert_eq!(drained, 20, "worker 1 should drain its own deque and steal the rest");
        assert!(workers[0].pop().is_none());
    }

    #[test]
    fn stealing_pool_single_worker_behaves_like_a_queue() {
        let workers = stealing_pool(items(&[1, 2, 3]), 1);
        assert_eq!(workers.len(), 1);
        let mut count = 0;
        while workers[0].pop().is_some() {
            count += 1;
        }
        assert_eq!(count, 3);
        assert!(workers[0].pop().is_none());
    }

    #[test]
    #[should_panic(expected = "zero workers")]
    fn stealing_pool_zero_workers_panics() {
        let _ = stealing_pool(Vec::new(), 0);
    }

    /// Items ready to be leased right now.
    fn ready(queue: &LeaseQueue) -> usize {
        queue.lock().ready.len()
    }

    #[test]
    fn dropped_lease_returns_the_item_to_the_front() {
        let queue = LeaseQueue::new(items(&[1, 2]), MAX_LEASE_ATTEMPTS);
        {
            let lease = queue.pop().unwrap();
            assert_eq!(lease.item().file_id, FileId(0));
            assert_eq!(ready(&queue), 1);
            // Dropped without ack — e.g. a panic unwound through the holder.
        }
        assert_eq!(queue.reclaims(), 1);
        assert_eq!(ready(&queue), 2, "the item is back");
        let lease = queue.pop().unwrap();
        assert_eq!(lease.item().file_id, FileId(0), "reclaimed item keeps its place at the front");
        lease.ack();
        assert_eq!(queue.pop().unwrap().item().file_id, FileId(1));
    }

    #[test]
    fn acked_lease_consumes_the_item() {
        let queue = LeaseQueue::new(items(&[1]), MAX_LEASE_ATTEMPTS);
        queue.pop().unwrap().ack();
        assert_eq!(ready(&queue), 0);
        assert!(queue.pop().is_none());
        assert_eq!(queue.reclaims(), 0);
        assert!(queue.take_fallen().is_empty());
    }

    #[test]
    fn repeatedly_reclaimed_item_is_poisoned_not_looped() {
        let queue = LeaseQueue::new(items(&[7]), MAX_LEASE_ATTEMPTS);
        for _ in 0..MAX_LEASE_ATTEMPTS {
            let lease = queue.pop().expect("item still leasable");
            drop(lease);
        }
        assert!(queue.pop().is_none(), "poisoned item is not handed out again");
        assert_eq!(queue.reclaims(), u64::from(MAX_LEASE_ATTEMPTS));
        let poisoned = queue.take_fallen();
        assert_eq!(poisoned.len(), 1);
        assert_eq!(poisoned[0].0.file_id, FileId(0));
    }

    #[test]
    fn panicking_lease_holder_does_not_lose_the_item() {
        let queue = LeaseQueue::new(items(&[1, 2, 3]), MAX_LEASE_ATTEMPTS);
        let consumed = Arc::new(Mutex::new(Vec::new()));
        let mut first = true;
        // One consumer panics on the first item; the catch_unwind drops the
        // lease, which reclaims it — draining afterwards still sees all 3.
        while let Some(lease) = queue.pop() {
            let panics = first && lease.item().file_id == FileId(0);
            first = false;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                assert!(!panics, "scripted panic");
                lease.item().file_id.as_u32()
            }));
            match result {
                Ok(id) => {
                    consumed.lock().push(id);
                    lease.ack();
                }
                Err(_) => drop(lease),
            }
        }
        let mut seen = consumed.lock().clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(queue.reclaims(), 1);
    }

    proptest! {
        /// Every static strategy produces a partition: no item lost, none
        /// duplicated, exactly `workers` parts.
        #[test]
        fn partition_is_lossless(
            sizes in proptest::collection::vec(0u64..100_000, 0..200),
            workers in 1usize..9,
            strategy_idx in 0usize..DistributionStrategy::ALL.len(),
        ) {
            let strategy = DistributionStrategy::ALL[strategy_idx];
            let input = items(&sizes);
            let parts = partition(input.clone(), workers, strategy);
            prop_assert_eq!(parts.len(), workers);
            let mut recovered: Vec<u32> = parts
                .iter()
                .flat_map(|p| p.iter().map(|w| w.file_id.as_u32()))
                .collect();
            recovered.sort_unstable();
            let expected: Vec<u32> = (0..sizes.len() as u32).collect();
            prop_assert_eq!(recovered, expected);
        }

        /// Size-balanced imbalance is never worse than chunked imbalance by
        /// more than a rounding margin on any workload.
        #[test]
        fn size_balanced_is_reasonably_balanced(
            sizes in proptest::collection::vec(1u64..1_000_000, 1..120),
            workers in 1usize..8,
        ) {
            let sb = partition(items(&sizes), workers, DistributionStrategy::SizeBalanced);
            let (max, _, _) = balance_metrics(&sb);
            let total: u64 = sizes.iter().sum();
            let largest = *sizes.iter().max().unwrap();
            // LPT guarantee: max load ≤ mean + largest item.
            let bound = (total as f64 / workers as f64) + largest as f64 + 1.0;
            prop_assert!(max as f64 <= bound, "max {max} > bound {bound}");
        }
    }
}
