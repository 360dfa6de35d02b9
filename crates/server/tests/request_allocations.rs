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
//! A session fed a request line with no end holds no more of it than the
//! longest request a line may carry, and answers what follows it; a router
//! whose shard replies with ten million hits, or with a line that never
//! ends, reads no more of it than a well-formed reply holds and counts the
//! shard failed; and an exact or prefix lookup in a shard's front-coded
//! dictionary allocates nothing.
//!
//! The counters are thread-local, and everything measured runs on the test's
//! own thread (`execute` is a batch of one on its caller).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufReader, Cursor, Read};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;

use dsearch_core::{Configuration, Implementation, IndexGenerator};
use dsearch_corpus::{materialize_to_memfs, CorpusSpec};
use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_query::{evaluate, Query, Scorer};
use dsearch_server::protocol::render_response;
use dsearch_server::{
    EngineConfig, IndexSnapshot, LineHandler, QueryEngine, RemoteShard, Service, ShardBackend,
    ShardError,
};
use dsearch_text::Term;
use dsearch_vfs::VPath;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread less bytes freed on it, and the most
    /// that ever was.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn live(delta: i64) {
    let live = LIVE_BYTES.with(|live| {
        live.set(live.get() + delta);
        live.get()
    });
    PEAK_BYTES.with(|peak| peak.set(peak.get().max(live)));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only additions are thread-local counter bumps
// that neither allocate (const-initialised `Cell`s, no destructor) nor
// unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live(layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live(new_size as i64 - layout.size() as i64);
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
const HIT_BUDGET: u64 = 14;
/// Most allocations a miss, executed and rendered, may make.
const MISS_BUDGET: u64 = 31;
/// Most allocations `Query::parse` plus `evaluate` may make.
const EVAL_BUDGET: u64 = 18;

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

#[test]
fn term_lookups_in_a_front_coded_dictionary_allocate_nothing() {
    let (engine, index) = zipf_engine(1_500);
    let snapshot = engine.snapshot_cell().load();
    let shard = &snapshot.shards()[0];
    let terms: Vec<&Term> = index.iter().map(|(term, _)| term).collect();
    let missing = Term::from("zzzz-not-a-term");
    let (found, allocations) = allocations_during(|| {
        terms.iter().filter(|term| shard.postings(term).is_some()).count()
            + usize::from(shard.postings(&missing).is_some())
    });
    assert_eq!((found, allocations), (terms.len(), 0));
    let prefixes: Vec<String> = terms.iter().map(|term| term.as_str()[..1].to_owned()).collect();
    let (ranged, allocations) = allocations_during(|| {
        prefixes.iter().map(|prefix| shard.prefix_postings(prefix).len()).sum::<usize>()
    });
    assert!(ranged >= terms.len(), "{ranged} lists under {} prefixes", prefixes.len());
    assert_eq!(allocations, 0);
}

/// `len` bytes of `pattern` over and over, made as they are read.
struct Repeating {
    pattern: &'static [u8],
    at: usize,
    left: usize,
}

impl Read for Repeating {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.left);
        for byte in &mut buf[..n] {
            *byte = self.pattern[self.at % self.pattern.len()];
            self.at += 1;
        }
        self.left -= n;
        Ok(n)
    }
}

#[test]
fn a_line_without_end_is_answered_and_skipped_in_bounded_memory() {
    let mut docs = DocTable::new();
    let mut index = InMemoryIndex::new();
    for (path, words) in [("a.txt", ["rust", "index"]), ("b.txt", ["rust", "serve"])] {
        index.insert_file(docs.insert(path), words.map(Term::from));
    }
    let config = EngineConfig { workers: 1, ..EngineConfig::default() };
    let engine = QueryEngine::new(IndexSnapshot::from_index(index, docs, 1), config).unwrap();
    let service = Service::start(engine, None);
    let mut output = Vec::new();
    service.serve_lines(Cursor::new("rust\n"), &mut output).unwrap();

    // 64 MiB of two-byte characters with no newline among them (wherever
    // the cap falls, it may cut one), then a query, then a million empty
    // lines: made as they are read, so the input holds none of it.
    let endless = |pattern, left| Repeating { pattern, at: 0, left };
    let input = endless("é".as_bytes(), 64 << 20)
        .chain(Cursor::new("\nrust\n"))
        .chain(endless(b"\n", 1_000_000));
    output.clear();
    let before = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(before));
    service.serve_lines(BufReader::new(input), &mut output).unwrap();
    let held = PEAK_BYTES.with(Cell::get) - before;
    let text = String::from_utf8(output).unwrap();
    assert!(text.starts_with("ERR line too long\nEND\nOK 2 "), "{text}");
    assert_eq!(
        text.lines().filter(|line| line.starts_with("ERR") || line.starts_with("OK")).count(),
        2
    );
    assert!(held < 1 << 20, "a session held {held} bytes at once");
    service.shutdown();
}

/// A shard that answers the first request line it reads with `reply` —
/// made as it is written — and writes until the router hangs up.
fn hostile_shard(reply: impl Read + Send + 'static) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let writer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut request = [0u8; 256];
        let _ = conn.read(&mut request);
        // Ends when the router drops the connection.
        let _ = std::io::copy(&mut BufReader::new(reply), &mut conn);
    });
    (addr, writer)
}

/// What a router's remote shard makes of `reply`, and the most bytes it
/// held at once while reading it.
fn route_through(reply: impl Read + Send + 'static) -> (Result<usize, ShardError>, i64, String) {
    let (addr, writer) = hostile_shard(reply);
    let shard = RemoteShard::new(addr);
    let before = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(before));
    let answer = shard.search_batch(&["rust".to_owned()], &[0], 20).pop().unwrap();
    let held = PEAK_BYTES.with(Cell::get) - before;
    let debug = format!("{shard:?}");
    // A failed shard's connection is closed, which ends the writer.
    drop(shard);
    writer.join().unwrap();
    (answer.map(|reply| reply.hits.len()), held, debug)
}

#[test]
fn a_shard_reply_past_a_well_formed_one_fails_the_shard_in_bounded_memory() {
    let status = Cursor::new("OK 10000000 generation=1 cached=false micros=1 stages=\n");
    let hits =
        Repeating { pattern: b"doc.txt (1 terms) score=1.5\n", at: 0, left: 10_000_000 * 28 };
    let (answer, held, shard) = route_through(status.chain(hits));
    let Err(ShardError::Unavailable(why)) = answer else {
        panic!("ten million hit lines must fail the shard: {answer:?}");
    };
    assert!(why.contains("longer than a well-formed"), "{why}");
    assert!(held < 1 << 20, "the router held {held} bytes at once");
    assert!(shard.contains("pooled: 0"), "the connection is dropped: {shard}");

    // 64 MiB with no newline, after a status line.
    let status = Cursor::new("OK 1 generation=1 cached=false micros=1 stages=\n");
    let endless = Repeating { pattern: "é".as_bytes(), at: 0, left: 64 << 20 };
    let (answer, held, shard) = route_through(status.chain(endless));
    let Err(ShardError::Unavailable(why)) = answer else {
        panic!("a line that never ends must fail the shard: {answer:?}");
    };
    assert!(why.contains("line too long"), "{why}");
    assert!(held < 1 << 20, "the router held {held} bytes at once");
    assert!(shard.contains("pooled: 0"), "the connection is dropped: {shard}");

    // A well-formed reply still answers, and its connection is kept.
    let (answer, _, shard) = route_through(Cursor::new(
        "OK 2 generation=1 cached=false micros=1 stages=\na.txt (1 terms) score=1.5\n\
         b.txt (1 terms) score=0.5\nEND\n",
    ));
    assert_eq!(answer.unwrap(), 2);
    assert!(shard.contains("pooled: 1"), "{shard}");
}
