//! Closed- and open-loop load generation against a [`WorkerPool`].
//!
//! The workload is replayed from a query list, usually derived from the
//! served snapshot itself ([`Workload::from_snapshot`] samples real index
//! terms, weighted toward frequent ones the way user query streams are).
//! Closed-loop mode models `clients` synchronous users (each waits for its
//! answer before sending the next query); open-loop mode submits at a fixed
//! rate regardless of completions, which is how tail latency under overload
//! is measured.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dsearch_obs::{LatencySummary, Stage};

use crate::engine::{ServerError, WorkerPool};
use crate::snapshot::IndexSnapshot;

/// A replayable query list.
#[derive(Debug, Clone)]
pub struct Workload {
    queries: Vec<String>,
}

/// Tiny deterministic generator (splitmix64) so the load generator needs no
/// RNG dependency.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

impl Workload {
    /// Wraps an explicit query list.
    ///
    /// # Panics
    ///
    /// Panics when `queries` is empty.
    #[must_use]
    pub fn from_queries(queries: Vec<String>) -> Self {
        assert!(!queries.is_empty(), "workload needs at least one query");
        Workload { queries }
    }

    /// Builds a `distinct`-query workload from the terms of `snapshot`.
    ///
    /// Terms are ranked by document frequency and picked with a bias toward
    /// the frequent end; the query mix is roughly half single-term, a quarter
    /// two-term `AND`, and the rest split between `OR` and prefix queries.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot holds no terms.
    #[must_use]
    pub fn from_snapshot(snapshot: &IndexSnapshot, distinct: usize, seed: u64) -> Self {
        // Rank terms by how many documents they appear in.
        let mut by_frequency: Vec<(String, usize)> = {
            let mut merged = std::collections::BTreeMap::<String, usize>::new();
            for query_term in snapshot.terms() {
                *merged.entry(query_term.0).or_insert(0) += query_term.1;
            }
            merged.into_iter().collect()
        };
        assert!(!by_frequency.is_empty(), "cannot build a workload from an empty snapshot");
        by_frequency.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let terms: Vec<&str> = by_frequency.iter().map(|(t, _)| t.as_str()).collect();

        let mut mix = Mix(seed ^ 0x10ad_6e4e);
        // Min-of-two-uniforms biases picks toward low ranks (frequent terms).
        let pick = |mix: &mut Mix| -> &str {
            let i = mix.below(terms.len());
            let j = mix.below(terms.len());
            terms[i.min(j)]
        };

        let mut queries = Vec::with_capacity(distinct.max(1));
        for _ in 0..distinct.max(1) {
            let a = pick(&mut mix);
            let query = match mix.below(100) {
                0..=49 => a.to_string(),
                50..=74 => format!("{a} {}", pick(&mut mix)),
                75..=89 => format!("{a} OR {}", pick(&mut mix)),
                _ => {
                    let want = 1 + mix.below(3);
                    let prefix: String = a.chars().take(want).collect();
                    format!("{prefix}*")
                }
            };
            queries.push(query);
        }
        Workload { queries }
    }

    /// The queries, in replay order.
    #[must_use]
    pub fn queries(&self) -> &[String] {
        &self.queries
    }

    /// Number of distinct request lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Returns `true` when the workload is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// How load is applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// `clients` synchronous users, each waiting for its answer.
    Closed {
        /// Number of concurrent clients.
        clients: usize,
    },
    /// Fixed submission rate in queries/second, independent of completions.
    Open {
        /// Target submission rate.
        rate_qps: f64,
    },
}

/// Load-run parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadConfig {
    /// Total requests to issue.
    pub requests: usize,
    /// Closed- or open-loop behaviour.
    pub mode: LoadMode,
    /// Collect per-stage latency histograms from each response's trace
    /// (`--stage-report`): where did the wall time of a query actually go?
    pub stage_report: bool,
    /// Optional per-request deadline, forwarded on the wire as `@d=<ms>`.
    /// Completions slower than this stop counting toward goodput even when
    /// the server races past its own budget check and still answers.
    pub deadline_ms: Option<u64>,
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests issued.
    pub requests: usize,
    /// Requests that failed (parse errors, shutdown).
    pub errors: usize,
    /// Requests shed by the server's admission control.
    pub shed: usize,
    /// Requests the server gave up on because their budget ran out
    /// (`deadline_exceeded` responses) — distinct from `errors`.
    pub deadline_exceeded: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Achieved throughput (completions per second, on time or not).
    pub qps: f64,
    /// On-time completions per second: answers whose client-observed latency
    /// met the deadline.  Equals `qps` when no deadline is set.
    pub goodput: f64,
    /// Client-observed latency percentiles (includes queueing).
    pub latency: LatencySummary,
    /// Snapshot generations observed in responses.
    pub generations: BTreeSet<u64>,
    /// Responses served from the query cache.
    pub cache_hits: usize,
    /// Per-stage latency summaries (empty unless
    /// [`stage_report`](LoadConfig::stage_report) was set).  Spans are
    /// batch-shared server-side, so each stage summarises the batches the
    /// client's queries rode in.
    pub stages: Vec<(Stage, LatencySummary)>,
    /// Share of total client-observed latency the traces attribute to named
    /// stages, in percent (zero without a stage report).
    pub attributed_pct: f64,
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests {}  errors {}  shed {}  deadline_exceeded {}  elapsed {:.3?}  qps {:.1}  goodput {:.1}",
            self.requests,
            self.errors,
            self.shed,
            self.deadline_exceeded,
            self.elapsed,
            self.qps,
            self.goodput
        )?;
        writeln!(f, "latency  {}", self.latency)?;
        write!(
            f,
            "cache hits {} ({:.1}%)  generations seen {:?}",
            self.cache_hits,
            100.0 * self.cache_hits as f64 / self.requests.max(1) as f64,
            self.generations
        )?;
        if !self.stages.is_empty() {
            writeln!(f)?;
            for (stage, summary) in &self.stages {
                writeln!(f, "stage {:<15} {summary}", stage.as_str())?;
            }
            write!(f, "stages attribute {:.1}% of client-observed latency", self.attributed_pct)?;
        }
        Ok(())
    }
}

/// Runs `config.requests` queries from `workload` against `pool`.
#[must_use]
pub fn run(pool: &WorkerPool, workload: &Workload, config: &LoadConfig) -> LoadReport {
    let lines: Vec<String> = match config.deadline_ms {
        Some(ms) => workload
            .queries()
            .iter()
            .map(|raw| crate::protocol::prefix_deadline_ms(ms, raw))
            .collect(),
        None => workload.queries().to_vec(),
    };
    let deadline = config.deadline_ms.map(Duration::from_millis);
    match config.mode {
        LoadMode::Closed { clients } => {
            run_closed(pool, &lines, config.requests, clients, config.stage_report, deadline)
        }
        LoadMode::Open { rate_qps } => {
            run_open(pool, &lines, config.requests, rate_qps, config.stage_report, deadline)
        }
    }
}

fn run_closed(
    pool: &WorkerPool,
    lines: &[String],
    requests: usize,
    clients: usize,
    stage_report: bool,
    deadline: Option<Duration>,
) -> LoadReport {
    let clients = clients.max(1);
    let issued = AtomicUsize::new(0);
    let collected = Mutex::new(Collected::default());
    let started = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut local = Collected::default();
                loop {
                    let slot = issued.fetch_add(1, Ordering::Relaxed);
                    if slot >= requests {
                        break;
                    }
                    let raw = &lines[slot % lines.len()];
                    let sent = Instant::now();
                    match pool.execute(raw) {
                        Ok(response) => {
                            let latency = sent.elapsed();
                            local.on_time += usize::from(deadline.is_none_or(|d| latency <= d));
                            local.latencies.push(latency);
                            local.generations.insert(response.generation);
                            local.cache_hits += usize::from(response.cached);
                            if stage_report {
                                local.collect_stages(&response.trace);
                            }
                        }
                        Err(ServerError::Overloaded) => local.shed += 1,
                        Err(ServerError::DeadlineExceeded) => local.deadline_exceeded += 1,
                        Err(_) => local.errors += 1,
                    }
                }
                collected.lock().unwrap_or_else(|e| e.into_inner()).merge(local);
            });
        }
    });

    let elapsed = started.elapsed();
    collected.into_inner().unwrap_or_else(|e| e.into_inner()).into_report(requests, elapsed)
}

fn run_open(
    pool: &WorkerPool,
    lines: &[String],
    requests: usize,
    rate_qps: f64,
    stage_report: bool,
    deadline: Option<Duration>,
) -> LoadReport {
    let rate = rate_qps.max(1.0);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let started = Instant::now();
    let mut collected = Collected::default();

    // Submit on schedule; collect completions on a second thread so slow
    // responses never hold the pacer back.
    let (tx, rx) = std::sync::mpsc::channel::<(Instant, crate::engine::PendingResponse)>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut collected = Collected::default();
            for (sent, pending) in rx {
                match pending.wait() {
                    Ok(response) => {
                        let latency = sent.elapsed();
                        collected.on_time += usize::from(deadline.is_none_or(|d| latency <= d));
                        collected.latencies.push(latency);
                        collected.generations.insert(response.generation);
                        collected.cache_hits += usize::from(response.cached);
                        if stage_report {
                            collected.collect_stages(&response.trace);
                        }
                    }
                    Err(ServerError::DeadlineExceeded) => collected.deadline_exceeded += 1,
                    Err(_) => collected.errors += 1,
                }
            }
            collected
        });

        for i in 0..requests {
            let due = started + interval.mul_f64(i as f64);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let raw = &lines[i % lines.len()];
            let sent = Instant::now();
            match pool.submit(raw.as_str()) {
                Ok(pending) => {
                    // Collector gone means the run is being torn down.
                    let _ = tx.send((sent, pending));
                }
                // Rejected at admission: shed without disturbing the pacing.
                Err(ServerError::Overloaded) => collected.shed += 1,
                Err(_) => collected.errors += 1,
            }
        }
        drop(tx);
        collected.merge(collector.join().expect("collector thread"));
    });

    let elapsed = started.elapsed();
    collected.into_report(requests, elapsed)
}

#[derive(Default)]
struct Collected {
    latencies: Vec<Duration>,
    generations: BTreeSet<u64>,
    cache_hits: usize,
    errors: usize,
    shed: usize,
    deadline_exceeded: usize,
    /// Completions that met the client's deadline (all of them without one).
    on_time: usize,
    stages: BTreeMap<Stage, Vec<Duration>>,
    /// Sum of every collected trace's attributed time (stage-report runs).
    attributed: Duration,
}

impl Collected {
    fn collect_stages(&mut self, trace: &dsearch_obs::QueryTrace) {
        for span in trace.spans() {
            self.stages.entry(span.stage).or_default().push(span.dur);
        }
        self.attributed = self.attributed.saturating_add(trace.attributed());
    }

    fn merge(&mut self, other: Collected) {
        self.latencies.extend(other.latencies);
        self.generations.extend(other.generations);
        self.cache_hits += other.cache_hits;
        self.errors += other.errors;
        self.shed += other.shed;
        self.deadline_exceeded += other.deadline_exceeded;
        self.on_time += other.on_time;
        for (stage, samples) in other.stages {
            self.stages.entry(stage).or_default().extend(samples);
        }
        self.attributed = self.attributed.saturating_add(other.attributed);
    }

    fn into_report(self, requests: usize, elapsed: Duration) -> LoadReport {
        let (qps, goodput) = if elapsed.as_secs_f64() > 0.0 {
            (
                self.latencies.len() as f64 / elapsed.as_secs_f64(),
                self.on_time as f64 / elapsed.as_secs_f64(),
            )
        } else {
            (0.0, 0.0)
        };
        let total: Duration =
            self.latencies.iter().fold(Duration::ZERO, |a, d| a.saturating_add(*d));
        let attributed_pct = if self.stages.is_empty() || total.is_zero() {
            0.0
        } else {
            100.0 * self.attributed.as_secs_f64() / total.as_secs_f64()
        };
        LoadReport {
            requests,
            errors: self.errors,
            shed: self.shed,
            deadline_exceeded: self.deadline_exceeded,
            elapsed,
            qps,
            goodput,
            latency: LatencySummary::from_samples(&self.latencies),
            generations: self.generations,
            cache_hits: self.cache_hits,
            stages: self
                .stages
                .into_iter()
                .map(|(stage, samples)| (stage, LatencySummary::from_samples(&samples)))
                .collect(),
            attributed_pct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, QueryEngine};
    use dsearch_index::{DocTable, InMemoryIndex};
    use dsearch_text::Term;
    use std::sync::Arc;

    fn snapshot() -> IndexSnapshot {
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for i in 0..30u32 {
            let id = docs.insert(format!("doc{i}.txt"));
            let words = ["common".to_string(), format!("word{}", i % 7), format!("rare{i}")];
            index.insert_file(id, words.into_iter().map(Term::from));
        }
        IndexSnapshot::from_index(index, docs, 1)
    }

    fn pool(workers: usize) -> (Arc<QueryEngine>, WorkerPool) {
        let engine =
            QueryEngine::new(snapshot(), EngineConfig { workers, ..EngineConfig::default() })
                .unwrap();
        let pool = WorkerPool::start(Arc::clone(&engine));
        (engine, pool)
    }

    #[test]
    fn workload_from_snapshot_yields_valid_queries() {
        let snapshot = snapshot();
        let workload = Workload::from_snapshot(&snapshot, 40, 7);
        assert_eq!(workload.len(), 40);
        assert!(!workload.is_empty());
        // Every derived query parses and most hit something.
        let mut with_hits = 0;
        for raw in workload.queries() {
            let query = dsearch_query::Query::parse(raw).expect("derived queries parse");
            with_hits += usize::from(!snapshot.search(&query).is_empty());
        }
        assert!(with_hits * 2 >= workload.len(), "{with_hits}/40 queries matched");
        // Determinism.
        let again = Workload::from_snapshot(&snapshot, 40, 7);
        assert_eq!(workload.queries(), again.queries());
    }

    #[test]
    fn closed_loop_reports_latencies_and_hits() {
        let (engine, pool) = pool(4);
        let workload = Workload::from_queries(vec!["common".into(), "word1".into()]);
        let report = run(
            &pool,
            &workload,
            &LoadConfig {
                requests: 120,
                mode: LoadMode::Closed { clients: 4 },
                stage_report: false,
                deadline_ms: None,
            },
        );
        assert_eq!(report.requests, 120);
        assert_eq!(report.errors, 0);
        assert_eq!(report.shed, 0, "an unbounded queue never sheds");
        assert_eq!(report.latency.samples, 120);
        assert!(report.qps > 0.0);
        assert_eq!(report.generations, BTreeSet::from([1]));
        // Two distinct queries: everything after the first evaluations hits.
        assert!(report.cache_hits >= 118 - engine.config().workers, "{}", report.cache_hits);
        assert!(report.to_string().contains("qps"));
    }

    #[test]
    fn open_loop_paces_submissions() {
        let (_engine, pool) = pool(2);
        let workload = Workload::from_queries(vec!["common".into()]);
        let report = run(
            &pool,
            &workload,
            &LoadConfig {
                requests: 50,
                mode: LoadMode::Open { rate_qps: 2000.0 },
                stage_report: false,
                deadline_ms: None,
            },
        );
        assert_eq!(report.errors, 0);
        assert_eq!(report.latency.samples, 50);
        // 50 requests at 2000/s should take at least ~24ms.
        assert!(report.elapsed >= Duration::from_millis(20), "{:?}", report.elapsed);
    }

    #[test]
    fn errors_are_counted_not_fatal() {
        let (_engine, pool) = pool(2);
        let workload = Workload::from_queries(vec!["common".into(), "AND".into()]);
        let report = run(
            &pool,
            &workload,
            &LoadConfig {
                requests: 10,
                mode: LoadMode::Closed { clients: 2 },
                stage_report: false,
                deadline_ms: None,
            },
        );
        assert_eq!(report.errors, 5);
        assert_eq!(report.latency.samples, 5);
    }

    #[test]
    fn expired_deadlines_count_as_misses_not_errors() {
        let (_engine, pool) = pool(2);
        let workload = Workload::from_queries(vec!["common".into()]);
        // A zero-millisecond budget is already spent by the time a worker
        // dequeues the job, so every request is a deadline miss.
        let report = run(
            &pool,
            &workload,
            &LoadConfig {
                requests: 20,
                mode: LoadMode::Closed { clients: 2 },
                stage_report: false,
                deadline_ms: Some(0),
            },
        );
        assert_eq!(report.deadline_exceeded, 20);
        assert_eq!(report.errors, 0);
        assert_eq!(report.latency.samples, 0);
        assert_eq!(report.goodput, 0.0);
        assert!(report.to_string().contains("deadline_exceeded 20"), "{report}");
    }

    #[test]
    fn generous_deadlines_keep_goodput_equal_to_throughput() {
        let (_engine, pool) = pool(2);
        let workload = Workload::from_queries(vec!["common".into()]);
        let report = run(
            &pool,
            &workload,
            &LoadConfig {
                requests: 30,
                mode: LoadMode::Closed { clients: 2 },
                stage_report: false,
                deadline_ms: Some(10_000),
            },
        );
        assert_eq!(report.deadline_exceeded, 0);
        assert_eq!(report.latency.samples, 30);
        assert!((report.goodput - report.qps).abs() < 1e-9, "{} vs {}", report.goodput, report.qps);
    }
}
