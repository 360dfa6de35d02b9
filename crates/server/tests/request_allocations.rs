//! What one request allocates, counted — no clock.
//!
//! For each of the five query shapes the benchmark times (term, `AND`, `OR`,
//! prefix, `AND NOT`), on a Zipf corpus indexed by the real pipeline:
//!
//! * a cache hit — `QueryEngine::execute` plus `render_response` of an answer
//!   already cached and rendered — makes at most [`HIT_BUDGET`] allocations:
//!   the request's own parse, batch frame and response text, never the
//!   answer's hit lines again;
//! * a miss makes at most [`MISS_BUDGET`]: the hit's, the evaluation's, the
//!   cache entry's and one rendering of the body;
//! * `Query::parse` plus `evaluate` make at most [`EVAL_BUDGET`]: per query,
//!   never per group, per cursor or per hit;
//! * and on a corpus four times larger a hit and an evaluation cost exactly
//!   as many (a miss within the same budget: it also grows the cache's
//!   tables now and then): nothing scales with the length of a posting list.
//!
//! The counter is thread-local, and everything measured runs on the test's
//! own thread (`execute` is a batch of one on its caller).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dsearch_core::{Configuration, Implementation, IndexGenerator};
use dsearch_corpus::{materialize_to_memfs, CorpusSpec};
use dsearch_index::InMemoryIndex;
use dsearch_query::{evaluate, Query, Scorer};
use dsearch_server::protocol::render_response;
use dsearch_server::{EngineConfig, IndexSnapshot, QueryEngine};
use dsearch_vfs::VPath;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

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

fn allocations_during<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = work();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// Most allocations a cache hit, executed and rendered, may make.
const HIT_BUDGET: u64 = 16;
/// Most allocations a miss, executed and rendered, may make.
const MISS_BUDGET: u64 = 40;
/// Most allocations `Query::parse` plus `evaluate` may make.
const EVAL_BUDGET: u64 = 20;

/// `files` short documents over a Zipf vocabulary, through the real pipeline.
fn zipf_engine(files: usize) -> (Arc<QueryEngine>, InMemoryIndex) {
    let spec = CorpusSpec {
        small_files: files,
        small_file_median_bytes: 400,
        small_file_sigma: 0.6,
        large_files: 0,
        vocabulary_size: 4_000,
        directories: 16,
        ..CorpusSpec::paper()
    };
    let (fs, _) = materialize_to_memfs(&spec, 0x5eed);
    let (index, docs) = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 0))
        .expect("the in-memory corpus indexes")
        .outcome
        .into_single_index();
    let snapshot = IndexSnapshot::from_index(index.clone(), docs, 1);
    let config = EngineConfig { workers: 1, ..EngineConfig::default() };
    (QueryEngine::new(snapshot, config).unwrap(), index)
}

/// The five shapes over terms picked by document frequency, much as the
/// `query_eval` micro-bench picks them: the most frequent term, one in about
/// every other document, three around every fortieth, the rarest, and a
/// two-letter prefix (a union long enough to be sorted with a buffer on
/// either corpus).
fn shapes(index: &InMemoryIndex, docs: usize) -> Vec<(&'static str, String)> {
    let mut by_df: Vec<(&str, usize)> =
        index.iter().map(|(t, list)| (t.as_str(), list.len())).collect();
    by_df.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let at_most = |df: usize, n: usize| -> Vec<&str> {
        by_df.iter().filter(|(_, len)| *len <= df).take(n).map(|(t, _)| *t).collect()
    };
    let (top, half, mid) = (by_df[0].0, at_most(docs / 2, 1)[0], at_most(docs / 40, 3));
    let rare = by_df.last().unwrap().0;
    let prefix: String = mid[0].chars().take(2).collect();
    vec![
        ("term", mid[0].to_owned()),
        ("and", format!("{} {half} {top}", mid[0])),
        ("or", format!("{} OR {} OR {rare}", mid[1], mid[2])),
        ("prefix", format!("{prefix}*")),
        ("not", format!("{} NOT {half}", mid[0])),
    ]
}

/// `(miss, hit, parse + evaluate)` allocations of every shape.
fn counts(files: usize) -> Vec<(&'static str, [u64; 3])> {
    let (engine, index) = zipf_engine(files);
    let queries = shapes(&index, files);
    // Whatever a process allocates once (lazily initialised statics, the
    // cache shards' first tables) is not a request's: serve something first.
    for (_, raw) in &queries {
        let warm = format!("{raw} OR zzzz");
        let _ = render_response(&engine.execute(&warm).unwrap());
    }
    let snapshot = engine.snapshot_cell().load();
    queries
        .into_iter()
        .map(|(shape, raw)| {
            let (response, miss) = allocations_during(|| {
                let response = engine.execute(&raw).unwrap();
                let _ = render_response(&response);
                response
            });
            assert!(!response.cached && !response.results.is_empty(), "{shape}: {raw}");
            let (response, hit) = allocations_during(|| {
                let response = engine.execute(&raw).unwrap();
                let _ = render_response(&response);
                response
            });
            assert!(response.cached, "{shape}: {raw}");
            let (_, eval) = allocations_during(|| {
                let query = Query::parse(&raw).unwrap();
                let shards = snapshot.shards();
                evaluate(shards, snapshot.docs(), &query, Scorer::Bm25, 20, &|| false)
            });
            (shape, [miss, hit, eval])
        })
        .collect()
}

#[test]
fn a_request_allocates_per_request_not_per_posting() {
    let small = counts(1_500);
    let large = counts(6_000);
    for ((shape, [miss, hit, eval]), (_, [larger_miss, larger_hit, larger_eval])) in
        small.iter().zip(&large)
    {
        eprintln!(
            "{shape}: miss {miss}, hit {hit}, parse + evaluate {eval}; \
             4x corpus: {larger_miss}, {larger_hit}, {larger_eval}"
        );
        assert!(*hit <= HIT_BUDGET, "{shape}: a cache hit made {hit} allocations");
        assert!(*eval <= EVAL_BUDGET, "{shape}: parse + evaluate made {eval} allocations");
        for miss in [miss, larger_miss] {
            assert!(*miss <= MISS_BUDGET, "{shape}: a miss made {miss} allocations");
        }
        // A miss also grows the cache's tables now and then, on either corpus.
        let larger = (larger_hit, larger_eval);
        assert_eq!((hit, eval), larger, "{shape}: the 4x corpus costs otherwise");
    }
}
