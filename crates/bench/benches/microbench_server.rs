//! Server microbenchmarks: query throughput through the worker pool at
//! 1/4/8 workers, with a cold cache (every request distinct) versus a warm
//! cache (small repeated workload), batched versus unbatched execution
//! on a repeated/shared-term workload the cache cannot absorb, and the
//! hand-off (`pool_execute`: cache hits through `Pool::execute` from one
//! caller, who always finds an execution slot, versus cache misses from four
//! times as many callers as slots, which queue), and a cache hit with nothing
//! around it (`hit_path`: execute and render on the bench's own thread, with
//! the allocations it makes printed).
//!
//! Run with `cargo bench --bench microbench_server`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dsearch::index::{DocTable, InMemoryIndex};
use dsearch::server::protocol::render_response;
use dsearch::server::{BatchConfig, EngineConfig, IndexSnapshot, Metric, QueryEngine, WorkerPool};
use dsearch::text::Term;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts the allocations of the thread that makes them, for `hit_path`.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates (const-initialised `Cell`, no destructor) nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A deterministic synthetic index: `docs` documents over a vocabulary with
/// Zipf-ish sharing ("common" everywhere, `w{k}` spread over k-sized strata).
fn build_snapshot(docs: usize) -> IndexSnapshot {
    let mut table = DocTable::new();
    let mut index = InMemoryIndex::new();
    for i in 0..docs {
        let id = table.insert(format!("doc{i}.txt"));
        let words = [
            "common".to_string(),
            format!("w{}", i % 10),
            format!("m{}", i % 100),
            format!("rare{i}"),
        ];
        index.insert_file(id, words.into_iter().map(Term::from));
    }
    IndexSnapshot::from_index(index, table, 1)
}

fn engine_with(workers: usize, cache_capacity: usize) -> Arc<QueryEngine> {
    engine_over(build_snapshot(2000), workers, cache_capacity)
}

fn engine_over(snapshot: IndexSnapshot, workers: usize, cache_capacity: usize) -> Arc<QueryEngine> {
    QueryEngine::new(
        snapshot,
        EngineConfig {
            workers,
            cache_capacity,
            cache_shards: 8,
            result_limit: 20,
            ..EngineConfig::default()
        },
    )
    .expect("bench config is valid")
}

/// Warm workload: 16 distinct queries replayed; after the first pass every
/// request is a cache hit.
fn warm_workload() -> Vec<String> {
    (0..16).map(|i| format!("common w{} OR m{}", i % 10, i % 100)).collect()
}

/// Cold workload: a large pool of distinct queries (far beyond the cache
/// capacity used in the cold benchmark) so effectively every request misses.
fn cold_workload() -> Vec<String> {
    (0..4096).map(|i| format!("m{} rare{}", i % 100, i % 2000)).collect()
}

const REQUESTS_PER_ITER: usize = 512;

/// A closed loop: `callers` threads each take the next of `requests`
/// requests (cycling through `queries`) and wait for its answer through
/// `Pool::execute` before taking another.  Panics if any request fails.
fn closed_loop(pool: &WorkerPool, queries: &[String], requests: usize, callers: usize) {
    let issued = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..callers {
            scope.spawn(|| loop {
                let slot = issued.fetch_add(1, Ordering::Relaxed);
                if slot >= requests {
                    break;
                }
                if pool.execute(&queries[slot % queries.len()]).is_err() {
                    failed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(failed.into_inner(), 0, "bench requests must not fail");
}

fn bench_worker_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(REQUESTS_PER_ITER as u64));

    for workers in [1usize, 4, 8] {
        // Warm: shared engine keeps its cache across iterations.
        let engine = engine_with(workers, 4096);
        let pool = WorkerPool::start(Arc::clone(&engine));
        let workload = warm_workload();
        group.bench_with_input(BenchmarkId::new("warm_cache", workers), &workers, |b, &workers| {
            b.iter(|| closed_loop(&pool, &workload, REQUESTS_PER_ITER, workers.max(2)));
        });
        pool.shutdown();

        // Cold: tiny cache + distinct queries, so every request searches.
        let engine = engine_with(workers, 1);
        let pool = WorkerPool::start(Arc::clone(&engine));
        let workload = cold_workload();
        group.bench_with_input(BenchmarkId::new("cold_cache", workers), &workers, |b, &workers| {
            b.iter(|| closed_loop(&pool, &workload, REQUESTS_PER_ITER, workers.max(2)));
        });
        pool.shutdown();
    }
    group.finish();
}

fn bench_cache_effect(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_cache_effect");
    group.sample_size(10);
    group.throughput(Throughput::Elements(REQUESTS_PER_ITER as u64));

    // Same engine shape, same 4 workers — the only variable is whether the
    // repeated workload can hit the cache.
    let warm_engine = engine_with(4, 4096);
    let warm_pool = WorkerPool::start(Arc::clone(&warm_engine));
    let warm = warm_workload();
    group.bench_function("repeated_queries_warm", |b| {
        b.iter(|| closed_loop(&warm_pool, &warm, REQUESTS_PER_ITER, 4));
    });

    let cold_engine = engine_with(4, 1);
    let cold_pool = WorkerPool::start(Arc::clone(&cold_engine));
    group.bench_function("repeated_queries_cold", |b| {
        b.iter(|| closed_loop(&cold_pool, &warm, REQUESTS_PER_ITER, 4));
    });

    // Report the measured cache effect once, outside the timing loops.
    let warm_counters = warm_engine.cache_counters();
    let cold_counters = cold_engine.cache_counters();
    println!(
        "cache hit rates: warm {:.3} vs cold {:.3}",
        warm_counters.hit_rate(),
        cold_counters.hit_rate()
    );

    warm_pool.shutdown();
    cold_pool.shutdown();
    group.finish();
}

/// An engine whose cache cannot absorb the workload (one entry), so any win
/// on repeated queries comes from batching: in-batch dedup.
fn batching_engine(max_batch: usize) -> Arc<QueryEngine> {
    QueryEngine::new(
        build_snapshot(2000),
        EngineConfig {
            workers: 2,
            cache_capacity: 1,
            cache_shards: 1,
            result_limit: 20,
            batch: BatchConfig { max_batch, ..BatchConfig::default() },
            ..EngineConfig::default()
        },
    )
    .expect("bench config is valid")
}

/// Repeated queries with heavy term sharing: 4 distinct canonical forms,
/// all anchored on "common", cycling fast enough that a one-entry cache
/// never helps two consecutive requests.  With 8 closed-loop clients a
/// drained batch usually holds duplicates, which dedup evaluates once.
fn shared_term_workload() -> Vec<String> {
    (0..64).map(|i| format!("common w{}", i % 4)).collect()
}

fn bench_batching(c: &mut Criterion) {
    // Out-of-band comparison for the batched-vs-unbatched acceptance check:
    // one long run per configuration, reporting throughput and the batching
    // counters.  8 closed-loop clients against 2 workers keep a backlog
    // queued, which is where batching can group and deduplicate.
    for (label, max_batch) in [("unbatched(max_batch=1)", 1), ("batched(max_batch=32)", 32)] {
        let engine = batching_engine(max_batch);
        let pool = WorkerPool::start(Arc::clone(&engine));
        let started = Instant::now();
        closed_loop(&pool, &shared_term_workload(), 8192, 8);
        let elapsed = started.elapsed();
        let stats = engine.stats();
        println!(
            "{label}: qps {:.0}  batched {}  dedup_hits {}",
            8192.0 / elapsed.as_secs_f64(),
            stats.get(Metric::Batched),
            stats.get(Metric::DedupHits)
        );
        pool.shutdown();
    }

    let mut group = c.benchmark_group("server_batching");
    group.sample_size(10);
    group.throughput(Throughput::Elements(REQUESTS_PER_ITER as u64));

    for (name, max_batch) in [("unbatched", 1usize), ("batched", 32)] {
        let engine = batching_engine(max_batch);
        let pool = WorkerPool::start(Arc::clone(&engine));
        let workload = shared_term_workload();
        group.bench_function(BenchmarkId::new("shared_terms", name), |b| {
            b.iter(|| closed_loop(&pool, &workload, REQUESTS_PER_ITER, 8));
        });
        pool.shutdown();
    }
    group.finish();
}

/// What getting a request to the engine and its answer back costs.  `idle`:
/// one closed-loop caller, every request a cache hit (3 µs of engine work),
/// granted a slot every time, runs on its own thread — the rest of an
/// iteration is `Pool::execute`.  `contended`: `4 × workers` callers, every
/// request a miss (the cache is off) that holds its slot while a 20 000-
/// document `OR` is evaluated, so callers that find both slots taken queue
/// and are handed to a worker and back.  How many ran where they
/// arrived and how many queued is printed, and `contended` must queue some:
/// a contended run that never queues measures the idle path twice.
fn bench_pool_execute(c: &mut Criterion) {
    const WORKERS: usize = 2;
    let mut group = c.benchmark_group("pool_execute");
    group.sample_size(10);
    group.throughput(Throughput::Elements(REQUESTS_PER_ITER as u64));
    let misses: Vec<String> =
        (0..64).map(|i| format!("common OR w{} OR m{}", i % 10, i % 100)).collect();
    for (name, callers, cache, docs, workload) in
        [("idle", 1, 4096, 2000, warm_workload()), ("contended", 4 * WORKERS, 0, 20_000, misses)]
    {
        let engine = engine_over(build_snapshot(docs), WORKERS, cache);
        let pool = WorkerPool::start(Arc::clone(&engine));
        group.bench_function(name, |b| {
            b.iter(|| closed_loop(&pool, &workload, REQUESTS_PER_ITER, callers));
        });
        let stats = engine.stats();
        let (queries, inline) = (stats.get(Metric::Queries), stats.get(Metric::Inline));
        println!(
            "pool_execute/{name}: {inline} of {queries} queries ran where they arrived, {} queued",
            queries - inline
        );
        assert!(name == "idle" || queries > inline, "pool_execute/{name} never queued");
        pool.shutdown();
    }
    group.finish();
}

/// A cache hit and its rendering, on this thread, with no pool, socket or
/// second caller: what a request costs the engine and the protocol once its
/// answer is cached.  Prints the allocations one such request makes.
fn bench_hit_path(c: &mut Criterion) {
    let engine = engine_with(1, 4096);
    let queries: Vec<String> =
        (0..16).map(|i| format!("common w{} OR m{}", i % 10, i % 100)).collect();
    let serve = |raw: &str| render_response(&engine.execute(raw).expect("bench query")).len();
    for raw in &queries {
        serve(raw);
    }
    let before = ALLOCATIONS.with(Cell::get);
    for raw in &queries {
        black_box(serve(raw));
    }
    let per_request = (ALLOCATIONS.with(Cell::get) - before) as f64 / queries.len() as f64;
    println!(
        "hit_path: {per_request:.1} allocations per request (execute + render of a cached answer)"
    );
    let mut group = c.benchmark_group("hit_path");
    group.sample_size(10);
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("execute_render", |b| {
        b.iter(|| queries.iter().map(|raw| serve(raw)).sum::<usize>());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_worker_scaling,
    bench_cache_effect,
    bench_batching,
    bench_pool_execute,
    bench_hit_path
);
criterion_main!(benches);
