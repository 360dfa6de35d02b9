//! Work distribution for Stage 2.
//!
//! Section 2.1 of the paper weighs four ways of handing files to the term
//! extractors: a work queue, round-robin distribution, assignment by file
//! length and work stealing.  It keeps round-robin into *x* private vectors —
//! no synchronisation at all during extraction — and so does
//! [`IndexGenerator`](crate::runner::IndexGenerator), whose one work source
//! is `deal`.  On a 2-core host, over a `paper_scaled(0.005)` corpus at
//! `(2, 0, 0)`, neither a work queue, work stealing, contiguous chunks nor
//! size-balanced assignment ran faster by more than round-robin's own
//! run-to-run spread; the last was ~25 % slower.
//!
//! The checkpointed [`BuildPipeline`](crate::pipeline::BuildPipeline) hands
//! out files through a [`LeaseQueue`] instead: there a file must outlive the
//! worker that dies holding it, and a transient read error is retried after
//! a backoff, which private vectors cannot do.

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

/// Deals `items` round-robin into `workers` private vectors: file *i* goes
/// to vector *i mod workers*, in walk order.
///
/// # Panics
///
/// Panics if `workers` is zero.
#[must_use]
pub(crate) fn deal(items: Vec<WorkItem>, workers: usize) -> Vec<Vec<WorkItem>> {
    assert!(workers > 0, "cannot deal work to zero workers");
    let mut parts: Vec<Vec<WorkItem>> =
        (0..workers).map(|_| Vec::with_capacity(items.len() / workers + 1)).collect();
    for (i, item) in items.into_iter().enumerate() {
        parts[i % workers].push(item);
    }
    parts
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use proptest::prelude::*;

    /// Deaths before an item is quarantined, in these tests.
    const MAX_LEASE_ATTEMPTS: u32 = 3;

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
        let parts = deal(items(&[1, 2, 3, 4, 5]), 2);
        assert_eq!(parts.len(), 2);
        let ids: Vec<Vec<u32>> =
            parts.iter().map(|p| p.iter().map(|w| w.file_id.as_u32()).collect()).collect();
        assert_eq!(ids, vec![vec![0, 2, 4], vec![1, 3]]);
    }

    #[test]
    fn single_worker_gets_everything() {
        let parts = deal(items(&[5, 6, 7]), 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 3);
    }

    #[test]
    fn more_workers_than_items_leaves_empty_parts() {
        let parts = deal(items(&[1, 2]), 5);
        assert_eq!(parts.len(), 5);
        assert_eq!(parts.iter().filter(|p| !p.is_empty()).count(), 2);
    }

    #[test]
    #[should_panic(expected = "zero workers")]
    fn zero_workers_panics() {
        let _ = deal(items(&[1]), 0);
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
        /// Dealing is a partition: no item lost, none duplicated, exactly
        /// `workers` parts.
        #[test]
        fn partition_is_lossless(
            sizes in proptest::collection::vec(0u64..100_000, 0..200),
            workers in 1usize..9,
        ) {
            let parts = deal(items(&sizes), workers);
            prop_assert_eq!(parts.len(), workers);
            let mut recovered: Vec<u32> = parts
                .iter()
                .flat_map(|p| p.iter().map(|w| w.file_id.as_u32()))
                .collect();
            recovered.sort_unstable();
            let expected: Vec<u32> = (0..sizes.len() as u32).collect();
            prop_assert_eq!(recovered, expected);
        }
    }
}
