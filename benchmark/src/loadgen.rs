//! The load generators: a closed loop (each connection sends its next
//! request when the previous one completes) and an open loop (requests are
//! due at scheduled times whatever the server does, and are timed from when
//! they were due).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::queries::Query;
use crate::rng::{Rng, Zipf};
use crate::stats::{latency_of, Latency};
use crate::wire::{Failure, Reply};

/// Hits a server returns at most (the program's default `--limit`).
pub const RESULT_LIMIT: u32 = 20;

/// Something that answers one query line: a connection, or a test double.
pub trait Requester {
    /// # Errors
    ///
    /// Whatever made the request fail.
    fn query(&mut self, line: &str) -> Result<Reply, Failure>;
}

impl<R: std::io::BufRead, W: std::io::Write> Requester for crate::wire::Conn<R, W> {
    fn query(&mut self, line: &str) -> Result<Reply, Failure> {
        crate::wire::Conn::query(self, line, false)
    }
}

/// Sends `query` and checks the answer's hit count against the reference
/// index.  (Which documents came back is checked by the untimed
/// verification pass; here the check must cost the client next to nothing.)
///
/// # Errors
///
/// The request's failure, or [`Failure::WrongAnswer`].
pub fn checked<R: Requester>(requester: &mut R, query: &Query) -> Result<Reply, Failure> {
    let reply = requester.query(&query.text)?;
    if reply.hits == query.expected.min(RESULT_LIMIT) {
        Ok(reply)
    } else {
        Err(Failure::WrongAnswer)
    }
}

/// How a connection picks its next query.
pub enum Stream<'a> {
    /// A fixed permutation cycled in order, shared by every connection.
    Cycle { queries: &'a [Query], cursor: &'a AtomicUsize },
    /// Independent Zipf draws.
    Zipf { queries: &'a [Query], zipf: &'a Zipf, rng: Rng },
}

impl<'a> Stream<'a> {
    /// The connection's next query.
    pub fn draw(&mut self) -> &'a Query {
        match self {
            Stream::Cycle { queries, cursor } => {
                &queries[cursor.fetch_add(1, Ordering::Relaxed) % queries.len()]
            }
            Stream::Zipf { queries, zipf, rng } => &queries[zipf.sample(rng)],
        }
    }
}

/// What one connection measured.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Latencies of verified answers, in nanoseconds.
    pub latency_ns: Vec<u32>,
    /// Open loop only: the latencies of the requests due in the last quarter
    /// of the schedule, where a backlog that grows shows.
    pub last_quarter_ns: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    /// Open loop only: how late each request was sent, in nanoseconds.
    pub lag_ns: Vec<u32>,
    /// The first failure seen, for the error message.
    pub first_failure: Option<Failure>,
}

impl Tally {
    /// Counts one request; returns the latency kept for a verified answer.
    fn record(&mut self, outcome: Result<Reply, Failure>, latency_ns: u64) -> Option<u32> {
        self.attempted += 1;
        match outcome {
            Ok(_) => {
                let ns = u32::try_from(latency_ns).unwrap_or(u32::MAX);
                self.latency_ns.push(ns);
                Some(ns)
            }
            Err(failure) => {
                self.failed += 1;
                self.first_failure.get_or_insert(failure);
                None
            }
        }
    }

    /// Folds another connection's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.latency_ns.extend(other.latency_ns);
        self.last_quarter_ns.extend(other.last_quarter_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.lag_ns.extend(other.lag_ns);
        self.first_failure = self.first_failure.or(other.first_failure);
    }

    #[must_use]
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Median and 99th percentile (or the highest percentile with ten
    /// samples beyond it) over every verified answer of the run, in
    /// microseconds.  `None` when no request succeeded.
    #[must_use]
    pub fn latency_us(&mut self) -> Option<Latency> {
        if self.latency_ns.is_empty() {
            return None;
        }
        let ns = latency_of(&mut self.latency_ns, 0.99);
        Some(Latency { p50: ns.p50 / 1e3, tail: ns.tail / 1e3, ..ns })
    }
}

/// Runs one connection's closed loop for `duration`.
pub fn closed_loop<R: Requester>(
    requester: &mut R,
    mut stream: Stream<'_>,
    duration: Duration,
) -> Tally {
    let mut tally = Tally::default();
    let started = Instant::now();
    loop {
        let sent = started.elapsed();
        if sent >= duration {
            return tally;
        }
        let outcome = checked(requester, stream.draw());
        tally.record(outcome, (started.elapsed() - sent).as_nanos() as u64);
    }
}

/// One scheduled request of an open loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Nanoseconds after the start of the measured time.
    pub due_ns: u64,
    pub query: u32,
}

/// A Poisson schedule of `rate` requests per second over `duration`, drawing
/// queries from `zipf`.
#[must_use]
pub fn poisson_schedule(rng: &mut Rng, zipf: &Zipf, rate: f64, duration: Duration) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    let mut at = 0.0f64;
    let end = duration.as_secs_f64();
    loop {
        at += rng.exponential() / rate;
        if at >= end {
            return arrivals;
        }
        arrivals.push(Arrival { due_ns: (at * 1e9) as u64, query: zipf.sample(rng) as u32 });
    }
}

/// The time source of an open loop (real, or a test's).
pub trait Clock {
    fn now_ns(&self) -> u64;
    fn sleep_until(&self, ns: u64);
}

/// Wall-clock time since a shared start.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, ns: u64) {
        let now = self.now_ns();
        if ns > now {
            std::thread::sleep(Duration::from_nanos(ns - now));
        }
    }
}

/// Runs one connection's share of an open loop.  A request is timed from its
/// due time, so the wait a stall imposes on the requests queued behind it is
/// counted; the generator's own lateness is the gap between the moment it
/// could have sent (due, and the connection free) and the moment it did.
/// The schedule spans `horizon_ns`; requests still unsent at `give_up_ns`
/// count as failed.
pub fn open_loop<R: Requester, C: Clock>(
    requester: &mut R,
    clock: &C,
    arrivals: &[Arrival],
    queries: &[Query],
    horizon_ns: u64,
    give_up_ns: u64,
) -> Tally {
    let mut tally = Tally::default();
    let mut free_at = 0u64;
    for (i, arrival) in arrivals.iter().enumerate() {
        clock.sleep_until(arrival.due_ns);
        let sent = clock.now_ns();
        if sent > give_up_ns {
            let missed = (arrivals.len() - i) as u64;
            tally.attempted += missed;
            tally.failed += missed;
            tally.first_failure.get_or_insert(Failure::Io);
            break;
        }
        let could_send = arrival.due_ns.max(free_at);
        tally.lag_ns.push(u32::try_from(sent.saturating_sub(could_send)).unwrap_or(u32::MAX));
        let outcome = checked(requester, &queries[arrival.query as usize]);
        let done = clock.now_ns();
        free_at = done;
        let kept = tally.record(outcome, done.saturating_sub(arrival.due_ns));
        if arrival.due_ns >= horizon_ns / 4 * 3 {
            tally.last_quarter_ns.extend(kept);
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusSpec};
    use crate::queries::{generate, Bands};
    use std::cell::Cell;
    use std::rc::Rc;

    fn some_queries(n: usize) -> Vec<Query> {
        let spec = CorpusSpec { small_files: 200, large_files: 1, ..CorpusSpec::quick() };
        let corpus = Corpus::generate(&spec, 2, None).unwrap();
        generate(&corpus, &Bands::of(&corpus), 2, 1, n)
    }

    struct FakeClock(Rc<Cell<u64>>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }

        fn sleep_until(&self, ns: u64) {
            // Wakes 3 µs late, like a real timer.
            if ns > self.0.get() {
                self.0.set(ns + 3_000);
            }
        }
    }

    /// Answers correctly after a scripted service time per request.
    struct FakeServer<'a> {
        time: Rc<Cell<u64>>,
        service_ns: Vec<u64>,
        served: usize,
        queries: &'a [Query],
    }

    impl Requester for FakeServer<'_> {
        fn query(&mut self, line: &str) -> Result<Reply, Failure> {
            let service = self.service_ns[self.served.min(self.service_ns.len() - 1)];
            self.served += 1;
            self.time.set(self.time.get() + service);
            let query = self.queries.iter().find(|q| q.text == line).ok_or(Failure::Malformed)?;
            Ok(Reply { hits: query.expected.min(RESULT_LIMIT) })
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let queries = some_queries(20);
        let time = Rc::new(Cell::new(0));
        // Due every millisecond; the first request stalls for 10 ms, the
        // rest take 100 µs.
        let arrivals: Vec<Arrival> =
            (0..12).map(|i| Arrival { due_ns: 1_000_000 * (i + 1), query: i as u32 }).collect();
        let mut server = FakeServer {
            time: Rc::clone(&time),
            service_ns: vec![10_000_000, 100_000],
            served: 0,
            queries: &queries,
        };
        let mut tally =
            open_loop(&mut server, &FakeClock(time), &arrivals, &queries, 12_000_000, u64::MAX);
        assert_eq!((tally.attempted, tally.failed), (12, 0));
        let latencies = tally.latency_ns.clone();
        // First: sent 3 µs late, served in 10 ms.
        assert_eq!(latencies[0], 10_003_000);
        // Second: due at 2 ms, could not be sent before 11.003 ms, done at
        // 11.103 ms: 9.103 ms from its due time although its own service
        // took 0.1 ms.
        assert_eq!(latencies[1], 9_103_000);
        // The backlog drains at 0.9 ms per request (1 ms apart, 0.1 ms each).
        assert_eq!(latencies[2], 8_203_000);
        // Once drained, latency is service time plus the wake-up lag again.
        assert_eq!(*latencies.last().unwrap(), 103_000);
        // The generator was never late by more than a timer wake-up: time
        // spent blocked behind the stall is not generator lag.
        assert!(tally.lag_ns.iter().all(|&lag| lag <= 3_000), "{:?}", tally.lag_ns);
        assert_eq!(tally.lag_ns[1], 0);
        // Requests due from 9 ms on are the schedule's last quarter.
        assert_eq!(tally.last_quarter_ns, latencies[8..]);
        let latency = tally.latency_us().unwrap();
        assert_eq!((latency.samples, latency.tail_q), (12, 0.5));
        assert_eq!(latency.p50, 4603.0);
    }

    #[test]
    fn requests_unsent_at_the_cut_off_count_as_failed() {
        let queries = some_queries(20);
        let time = Rc::new(Cell::new(0));
        let arrivals: Vec<Arrival> =
            (0..10).map(|i| Arrival { due_ns: 1_000 * (i + 1), query: 0 }).collect();
        let mut server = FakeServer {
            time: Rc::clone(&time),
            service_ns: vec![1_000_000],
            served: 0,
            queries: &queries,
        };
        let tally =
            open_loop(&mut server, &FakeClock(time), &arrivals, &queries, 10_000, 2_500_000);
        assert_eq!(tally.attempted, 10);
        assert_eq!(tally.failed, 7, "three were sent before the cut-off");
        assert_eq!(tally.first_failure, Some(Failure::Io));
    }

    #[test]
    fn wrong_hit_counts_and_errors_are_failures_without_latency_samples() {
        struct Wrong;
        impl Requester for Wrong {
            fn query(&mut self, line: &str) -> Result<Reply, Failure> {
                if line.len().is_multiple_of(2) {
                    Ok(Reply { hits: 21 })
                } else {
                    Err(Failure::ErrStatus)
                }
            }
        }
        let queries = some_queries(40);
        let mut tally = Tally::default();
        for query in &queries {
            let outcome = checked(&mut Wrong, query);
            tally.record(outcome, 1_000);
        }
        assert_eq!(tally.attempted, 40);
        assert_eq!(tally.failed, 40);
        assert!(tally.latency_ns.is_empty());
        assert!(tally.first_failure.is_some());
        assert!(tally.latency_us().is_none());
    }

    #[test]
    fn poisson_schedules_repeat_per_seed_and_hit_their_rate() {
        let zipf = Zipf::new(100, 1.0);
        let make =
            |seed| poisson_schedule(&mut Rng::new(seed, 7), &zipf, 5000.0, Duration::from_secs(2));
        let a = make(1);
        assert_eq!(a, make(1));
        assert_ne!(a, make(2));
        assert!((a.len() as f64 - 10_000.0).abs() < 400.0, "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|arrival| arrival.due_ns < 2_000_000_000 && arrival.query < 100));
    }

    #[test]
    fn cycled_streams_share_one_cursor_and_tallies_merge() {
        let queries = some_queries(20);
        let cursor = AtomicUsize::new(0);
        let mut a = Stream::Cycle { queries: &queries, cursor: &cursor };
        let mut b = Stream::Cycle { queries: &queries, cursor: &cursor };
        let drawn: Vec<&str> =
            (0..40).map(|i| if i % 2 == 0 { a.draw() } else { b.draw() }.text.as_str()).collect();
        let expected: Vec<&str> = queries.iter().chain(&queries).map(|q| q.text.as_str()).collect();
        assert_eq!(drawn, expected);

        let mut one = Tally::default();
        one.record(Ok(Reply { hits: 1 }), 5_000);
        one.record(Ok(Reply { hits: 1 }), 9_000);
        let mut two = Tally::default();
        two.record(Err(Failure::Partial), 9_000);
        two.record(Ok(Reply { hits: 1 }), 7_000);
        one.merge(two);
        assert_eq!((one.attempted, one.failed, one.ok()), (4, 1, 3));
        assert_eq!(one.first_failure, Some(Failure::Partial));
        // The percentiles are over every sample of every connection.
        let latency = one.latency_us().unwrap();
        assert_eq!((latency.p50, latency.samples), (7.0, 3));
    }
}
