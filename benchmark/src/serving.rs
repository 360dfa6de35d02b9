//! The load each serving workload puts on its front server: which queries,
//! how they are warmed up, and the measured loop.  Shared by the end-to-end
//! run and the traced run so both send the same stream.

use std::sync::atomic::AtomicUsize;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::harness::{stream, Env, Inputs, Server, Workload};
use crate::loadgen::{closed_loop, open_loop, poisson_schedule, Stream, Tally, WallClock};
use crate::procs::precise_sleeps;
use crate::queries::Query;
use crate::rng::{Rng, Zipf};

/// Zipf exponent of the skewed draws (`serve_hot`, `serve_zipf_open`).
pub const DRAW_EXPONENT: f64 = 1.0;

/// The distinct queries of a workload.
#[must_use]
pub fn query_set(env: &Env, inputs: &Inputs, workload: Workload, seed: u64) -> Vec<Query> {
    let scale = &env.scale;
    match workload {
        Workload::ServeHot => inputs.queries(seed, stream::HOT, scale.hot_distinct),
        Workload::ServeZipfOpen => inputs.queries(seed, stream::ZIPF, scale.zipf_distinct),
        // `route_2shard` replays the `serve_cold` stream; the build
        // workloads check their stores with it.
        _ => inputs.queries(seed, stream::COLD, scale.cold_distinct),
    }
}

/// What each of `conns` warm-up connections sends to bring a server to the
/// state the workload measures: every hot query cached, the open loop's
/// cache filled by draws from its own distribution, and for the cold stream
/// code paths and allocator warm without caching anything the measured cycle
/// reaches before it is evicted again (the tail of the permutation is further
/// from its head than the cache is large).
#[must_use]
pub fn warm_up_plan(
    workload: Workload,
    queries: &[Query],
    seed: u64,
    conns: usize,
    conn: usize,
) -> Vec<&Query> {
    match workload {
        Workload::ServeHot => queries.iter().chain(queries).skip(conn).step_by(conns).collect(),
        Workload::ServeZipfOpen => {
            let zipf = Zipf::new(queries.len(), DRAW_EXPONENT);
            let mut rng = Rng::new(seed, stream::DRAWS - 1 - conn as u64);
            (0..queries.len() / conns).map(|_| &queries[zipf.sample(&mut rng)]).collect()
        }
        _ => {
            let tail = &queries[queries.len() - queries.len() / 16..];
            tail.iter().skip(conn).step_by(conns).collect()
        }
    }
}

/// Sends the warm-up over the workload's client connections.
///
/// # Errors
///
/// Fails when a connection is refused or a warm-up request fails.
pub fn warm_up(
    env: &Env,
    front: &Server,
    workload: Workload,
    queries: &[Query],
    seed: u64,
) -> std::io::Result<()> {
    let conns = env.nproc;
    let failures: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|i| {
                scope.spawn(move || {
                    let Ok(mut conn) = front.connect() else { return 1 };
                    warm_up_plan(workload, queries, seed, conns, i)
                        .into_iter()
                        .filter(|q| conn.query(&q.text, false).is_err())
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("warm-up thread")).sum()
    });
    if failures == 0 {
        Ok(())
    } else {
        Err(std::io::Error::other(format!("{failures} warm-up requests failed")))
    }
}

/// One measured loop.
pub struct Load<'a> {
    pub workload: Workload,
    pub queries: &'a [Query],
    pub seed: u64,
    /// Client connections, one thread each.
    pub conns: usize,
    /// `Some(rate)`: an open loop at `rate` requests per second in total,
    /// independent Poisson arrivals per connection, each request timed from
    /// when it was due.  `None`: a closed loop.  `serve_zipf_open` is the
    /// one workload measured open, at the frozen `Scale::open_rate`.
    pub open_rate: Option<f64>,
    /// Position in the cold permutation; shared by the phases of a run so a
    /// later phase continues the cycle instead of re-sending cached heads.
    pub cursor: &'a AtomicUsize,
    /// Separates the random draws of the phases of one run.
    pub phase: u64,
}

impl<'a> Load<'a> {
    /// The load a workload is measured under end to end: `nproc`
    /// connections, open at the frozen rate for `serve_zipf_open` and closed
    /// for the rest.
    #[must_use]
    pub fn of(
        env: &Env,
        workload: Workload,
        queries: &'a [Query],
        seed: u64,
        cursor: &'a AtomicUsize,
    ) -> Load<'a> {
        let open_rate = (workload == Workload::ServeZipfOpen).then_some(env.scale.open_rate);
        Load { workload, queries, seed, conns: env.nproc, open_rate, cursor, phase: 0 }
    }
}

/// Runs `load` against `front` for `seconds`.  All connections are opened
/// first and released together.
///
/// # Errors
///
/// Fails when a connection is refused.
pub fn measure(front: &Server, load: &Load<'_>, seconds: f64) -> std::io::Result<Tally> {
    let duration = Duration::from_secs_f64(seconds);
    let queries = load.queries;
    let zipf = Zipf::new(queries.len(), DRAW_EXPONENT);
    let barrier = Barrier::new(load.conns);
    let conns: Vec<_> = (0..load.conns).map(|_| front.connect()).collect::<Result<_, _>>()?;
    let start = Instant::now() + Duration::from_millis(20);
    let stream_of = |conn: usize| 1000 * load.phase + conn as u64;
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, mut conn)| {
                let (zipf, barrier) = (&zipf, &barrier);
                scope.spawn(move || {
                    if let Some(total_rate) = load.open_rate {
                        let rate = total_rate / load.conns as f64;
                        let mut rng = Rng::new(load.seed, stream::ARRIVALS + stream_of(i));
                        let arrivals = poisson_schedule(&mut rng, zipf, rate, duration);
                        precise_sleeps();
                        barrier.wait();
                        std::thread::sleep(start.saturating_duration_since(Instant::now()));
                        // A backlog that has not drained two seconds after
                        // the last due time is a failed run, not a long one.
                        let horizon = duration.as_nanos() as u64;
                        let give_up = horizon + 2_000_000_000;
                        let clock = WallClock(start);
                        open_loop(&mut conn, &clock, &arrivals, queries, horizon, give_up)
                    } else {
                        let stream = if load.workload != Workload::ServeCold
                            && load.workload != Workload::Route2Shard
                        {
                            let rng = Rng::new(load.seed, stream::DRAWS + stream_of(i));
                            Stream::Zipf { queries, zipf, rng }
                        } else {
                            Stream::Cycle { queries, cursor: load.cursor }
                        };
                        barrier.wait();
                        closed_loop(&mut conn, stream, duration)
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut total = Tally::default();
    for tally in tallies {
        total.merge(tally);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusSpec};
    use crate::queries::{generate, Bands};

    #[test]
    fn warm_up_plans_cover_the_hot_set_and_spare_the_cold_head() {
        let spec = CorpusSpec { small_files: 200, large_files: 1, ..CorpusSpec::quick() };
        let corpus = Corpus::generate(&spec, 2, None).unwrap();
        let queries = generate(&corpus, &Bands::of(&corpus), 2, 1, 160);
        let plan = |workload, conn| warm_up_plan(workload, &queries, 5, 2, conn);

        // Hot: the two connections together send every query twice.
        let mut hot: Vec<&str> = (0..2)
            .flat_map(|conn| plan(Workload::ServeHot, conn))
            .map(|q| q.text.as_str())
            .collect();
        hot.sort_unstable();
        let mut twice: Vec<&str> =
            queries.iter().chain(&queries).map(|q| q.text.as_str()).collect();
        twice.sort_unstable();
        assert_eq!(hot, twice);

        // Cold: only the last sixteenth of the permutation, nothing near
        // the head the measured cycle starts from.
        let cold: Vec<&Query> = (0..2).flat_map(|conn| plan(Workload::ServeCold, conn)).collect();
        assert_eq!(cold.len(), 10);
        assert!(cold.iter().all(|q| queries[150..].iter().any(|tail| tail.text == q.text)));

        // Open loop: seeded draws, as many as there are distinct queries.
        assert_eq!(plan(Workload::ServeZipfOpen, 0).len(), 80);
        let texts = |conn| -> Vec<&str> {
            plan(Workload::ServeZipfOpen, conn).iter().map(|q| q.text.as_str()).collect()
        };
        assert_eq!(texts(0), texts(0));
        assert_ne!(texts(0), texts(1));
    }
}
