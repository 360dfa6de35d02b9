//! Offline shim of `crossbeam`: the `channel` (bounded MPMC) and `deque`
//! (work-stealing) APIs the pipeline uses, implemented over std mutexes and
//! condvars.  Semantics match crossbeam where the workspace depends on them:
//! cloneable senders *and* receivers, sends that fail once every receiver is
//! gone, receivers that drain remaining messages after the last sender drops,
//! and batch-stealing deques.

pub mod channel {
    //! Bounded multi-producer multi-consumer channel.

    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        capacity: usize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// The sending half.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half (cloneable: multiple consumers share the queue).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates a bounded channel holding at most `capacity` messages.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(capacity.max(1))
    }

    /// Creates an unbounded channel: sends never block.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(usize::MAX)
    }

    fn with_capacity<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender gone: wake receivers so they observe shutdown.
                // Under the queue's lock: a receiver that read the count as
                // non-zero holds the lock until it waits, so the wake-up
                // cannot fall between its check and its wait.
                let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last receiver gone: wake blocked senders so sends fail
                // (under the lock, as for the last sender).
                let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking while the channel is full.
        ///
        /// # Errors
        ///
        /// Returns the value when every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                    return Err(SendError(value));
                }
                if queue.len() < self.shared.capacity {
                    queue.push_back(value);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                queue = self.shared.not_full.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking while the channel is empty.
        ///
        /// # Errors
        ///
        /// Fails when the channel is empty and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(value) = queue.pop_front() {
                    self.shared.not_full.notify_one();
                    return Ok(value);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                queue = self.shared.not_empty.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Receives without blocking.
        pub fn try_recv(&self) -> Option<T> {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            let value = queue.pop_front();
            if value.is_some() {
                self.shared.not_full.notify_one();
            }
            value
        }

        /// A blocking iterator that ends when every sender is dropped.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

pub mod deque {
    //! Work-stealing deques (the subset the Stage 2 distributor uses).

    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// Result of a steal attempt.
    #[derive(Debug)]
    pub enum Steal<T> {
        /// One item was stolen.
        Success(T),
        /// The victim's deque was empty.
        Empty,
        /// The attempt lost a race and may be retried.
        Retry,
    }

    /// The owner's handle to a deque.
    #[derive(Debug)]
    pub struct Worker<T> {
        inner: Arc<Mutex<VecDeque<T>>>,
    }

    /// A peer's stealing handle to a [`Worker`]'s deque.
    #[derive(Debug)]
    pub struct Stealer<T> {
        inner: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer { inner: Arc::clone(&self.inner) }
        }
    }

    impl<T> Worker<T> {
        /// Creates an empty FIFO deque.
        #[must_use]
        pub fn new_fifo() -> Self {
            Worker { inner: Arc::new(Mutex::new(VecDeque::new())) }
        }

        /// Pushes an item onto the deque.
        pub fn push(&self, item: T) {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).push_back(item);
        }

        /// Pops the next item (FIFO order).
        #[must_use]
        pub fn pop(&self) -> Option<T> {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).pop_front()
        }

        /// Number of items currently queued.
        #[must_use]
        pub fn len(&self) -> usize {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
        }

        /// Returns `true` when the deque holds no items.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Creates a stealing handle to this deque.
        #[must_use]
        pub fn stealer(&self) -> Stealer<T> {
            Stealer { inner: Arc::clone(&self.inner) }
        }
    }

    impl<T> Stealer<T> {
        /// Steals one item from the victim.
        #[must_use]
        pub fn steal(&self) -> Steal<T> {
            match self.inner.lock().unwrap_or_else(|e| e.into_inner()).pop_front() {
                Some(item) => Steal::Success(item),
                None => Steal::Empty,
            }
        }

        /// Steals about half the victim's items into `dest`, returning one of
        /// them.  The victim and destination locks are never held together,
        /// so mutual steals cannot deadlock.
        #[must_use]
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let batch: Vec<T> = {
                let mut victim = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                if victim.is_empty() {
                    return Steal::Empty;
                }
                let take = victim.len().div_ceil(2);
                victim.drain(..take).collect()
            };
            let mut iter = batch.into_iter();
            let first = iter.next().expect("batch is non-empty");
            let mut dest_queue = dest.inner.lock().unwrap_or_else(|e| e.into_inner());
            dest_queue.extend(iter);
            Steal::Success(first)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, RecvError};
    use super::deque::{Steal, Worker};

    #[test]
    fn channel_delivers_in_order_and_ends_cleanly() {
        let (tx, rx) = bounded::<u32>(2);
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u32> = rx.iter().collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn multiple_consumers_share_the_stream() {
        let (tx, rx) = bounded::<u32>(4);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || rx.iter().count())
            })
            .collect();
        drop(rx);
        for i in 0..90 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: usize = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 90);
    }

    #[test]
    fn send_fails_after_receivers_drop() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn unbounded_sends_never_block() {
        let (tx, rx) = super::channel::unbounded::<u32>();
        // Far beyond any plausible bounded capacity, with no receiver
        // draining: every send must return immediately.
        for i in 0..10_000 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 10_000);
    }

    #[test]
    fn deque_steals_batches_without_losing_items() {
        let victim = Worker::new_fifo();
        for i in 0..10 {
            victim.push(i);
        }
        let thief = Worker::new_fifo();
        let stealer = victim.stealer();
        let Steal::Success(first) = stealer.steal_batch_and_pop(&thief) else {
            panic!("steal should succeed");
        };
        let mut seen = vec![first];
        while let Some(i) = thief.pop() {
            seen.push(i);
        }
        while let Some(i) = victim.pop() {
            seen.push(i);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(matches!(Worker::<u32>::new_fifo().stealer().steal(), Steal::Empty));
    }
}
