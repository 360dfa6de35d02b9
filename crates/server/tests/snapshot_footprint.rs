//! The memory contract of the serving image, counted — no clock, no RSS.
//!
//! * Loading a store allocates per *document* (the strings of its one doc
//!   table, decoded once however many segments are over it) plus a constant
//!   a segment — never per term — and the loaded image (segment bytes,
//!   term and skip tables, lookup, norms, doc table) holds at most 4 bytes a
//!   posting: less than the bare ids take uncompressed.  (Until segment
//!   version 5 the bound was 1.5 bytes per byte of segment file, 4.07 bytes a
//!   posting on this input; the files then shrank by a quarter and the
//!   tables did not, so a ratio to the files would have failed for getting
//!   smaller: 3 447 993 resident for 2 561 958 bytes of files before,
//!   3 070 126 for 1 903 367 after.)
//! * A cached answer holds the hits the wire can render, however many
//!   documents the query matched.
//!
//! A load runs on several threads — segments side by side, a file read in
//! parts, its checksum verified and the doc file decoded beside its terms —
//! so the count is taken
//! over every thread a load starts as well as the caller's.  The two tests
//! of this binary take turns, so that no thread of the other one starts
//! while a load is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use dsearch_core::{Configuration, Implementation, IndexGenerator, IndexOutcome};
use dsearch_corpus::{materialize_to_memfs, CorpusSpec};
use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_persist::IndexStore;
use dsearch_query::{Hit, Query};
use dsearch_server::{EngineConfig, IndexSnapshot, QueryEngine};
use dsearch_text::Term;
use dsearch_vfs::VPath;

/// Allocations made on the threads that count.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Set while a load is counted.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Held by each test of this binary for as long as it runs.
static ONE_TEST_AT_A_TIME: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread's allocations count; decided at its first
    /// allocation, which counts when it falls while a load is counted — a
    /// thread the load started.
    static COUNTS: Cell<Option<bool>> = const { Cell::new(None) };
}

fn count_one() {
    COUNTS.with(|counts| {
        let counted = counts.get().unwrap_or_else(|| {
            let counted = COUNTING.load(Ordering::SeqCst);
            counts.set(Some(counted));
            counted
        });
        if counted {
            ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        }
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only additions are a thread-local flag and an
// atomic counter bump, which neither allocate (const-initialised `Cell`, no
// destructor) nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `work` returns, and the allocations it made on this thread and on
/// every thread it started.
fn allocations_during<T>(work: impl FnOnce() -> T) -> (T, u64) {
    COUNTS.with(|counts| counts.set(Some(true)));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let value = work();
    COUNTING.store(false, Ordering::SeqCst);
    let made = ALLOCATIONS.load(Ordering::SeqCst) - before;
    COUNTS.with(|counts| counts.set(Some(false)));
    (value, made)
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir()
            .join(format!("dsearch-snapshot-footprint-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Everything a segment load allocates: the file buffer, the length pairs,
/// the norm table, the term table, the lookup table, the doubling growth
/// (then the final shrink) of the shard-wide skip and frequency-offset
/// tables, and the start of each thread the load runs on (about 55 in all
/// on 2 cores).
const FIXED_ALLOCATIONS_PER_SEGMENT: u64 = 64;

/// Everything a load allocates for the doc file that is not one string per
/// document: the file buffer's growth, the table's two vectors, and the
/// growth of the buffer its paths are rebuilt in.
const FIXED_ALLOCATIONS_PER_DOC_FILE: u64 = 16;

#[test]
fn loading_allocates_per_document_and_holds_under_four_bytes_a_posting() {
    let _turn = ONE_TEST_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    // Half the benchmark's corpus, in its shape (many small files and a few
    // large ones over a Zipf vocabulary), through the real pipeline, left
    // un-joined as Implementation 3 leaves it: one segment per extractor.
    let spec = CorpusSpec {
        small_files: 6_000,
        small_file_median_bytes: 1_800,
        small_file_sigma: 1.0,
        large_files: 2,
        large_file_bytes: 2 * 1024 * 1024,
        vocabulary_size: 15_000,
        ..CorpusSpec::paper()
    };
    let (fs, _) = materialize_to_memfs(&spec, 14);
    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateNoJoin, Configuration::new(2, 0, 0))
        .unwrap();
    let IndexOutcome::Replicas { set, docs } = run.outcome else {
        panic!("Implementation 3 leaves replicas");
    };
    let dir = TempDir::new("load");
    let replicas = set.into_replicas();
    // One segment per replica, as a resumable build leaves them, and the
    // run as one segment: the segments load side by side in the first
    // store, the one segment's file on every core in the second.
    let mut apart = IndexStore::open(dir.0.join("apart")).unwrap();
    apart.start(&docs).unwrap();
    for replica in &replicas {
        apart.append(std::slice::from_ref(replica), &docs).unwrap();
    }
    let mut merged = IndexStore::open(dir.0.join("merged")).unwrap();
    merged.replace_with(&replicas, &docs).unwrap();
    assert_eq!((apart.segment_count(), merged.segment_count()), (2, 1));

    for store in [&apart, &merged] {
        let segments = store.segment_count() as u64;
        let (snapshot, allocations) =
            allocations_during(|| IndexSnapshot::load(store, 1).expect("the store loads"));
        let postings = snapshot.posting_count();
        let terms = snapshot.terms().count() as u64;
        // Entries are counted per shard: the two segments repeat most terms,
        // the one segment holds each once, at most the vocabulary.
        let floor = if segments == 2 { 20_000 } else { 15_000 };
        assert!(terms >= floor, "only {terms} term entries");
        let budget = docs.len() as u64
            + FIXED_ALLOCATIONS_PER_DOC_FILE
            + segments * FIXED_ALLOCATIONS_PER_SEGMENT;
        eprintln!("{allocations} allocations to load {segments} segment(s) (budget {budget})");
        assert!(
            allocations <= budget,
            "{allocations} allocations to load {segments} segments of {} documents and {terms} \
             term entries (budget {budget})",
            docs.len()
        );
        // The doc table's strings are counted, wherever they were made.
        assert!(allocations >= docs.len() as u64, "{allocations} allocations");
        let resident = snapshot.resident_bytes() as u64;
        assert!(
            resident <= postings * 4,
            "{resident} bytes resident for {postings} postings ({:.2} a posting)",
            resident as f64 / postings as f64
        );
        // The image answers (the tables point at the right bytes).
        let (term, doc_freq) = snapshot.terms().max_by_key(|(_, doc_freq)| *doc_freq).unwrap();
        let prefix: String = term.chars().take(2).collect();
        assert!(snapshot.search(&Query::parse(&term).unwrap()).len() >= doc_freq);
        assert!(snapshot.search(&Query::parse(&format!("{prefix}*")).unwrap()).len() >= doc_freq);
    }
}

/// Booting a store decodes its one doc table, whatever the number of
/// segments over it: the allocations a load makes for `extra` more documents
/// (which no segment indexes) are one string each, for one segment and for
/// thirty alike — where a table decoded once per segment would cost thirty
/// strings a document in the second store.  (Which thread takes which file
/// moves a growing result vector's reallocations by a few either way.)
#[test]
fn a_boot_decodes_one_doc_table_however_many_segments() {
    let _turn = ONE_TEST_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let mut replicas = vec![InMemoryIndex::new(); 30];
    for i in 0..600u32 {
        let terms = [(Term::from(format!("w{}", i % 37)), 1 + i % 4), (Term::from("common"), 1)];
        replicas[i as usize % 30].insert_file_counted(dsearch_index::FileId(i), terms);
    }
    let dir = TempDir::new("one-table");
    let extra = 200;
    let attributable = |segments: usize| {
        let [without, with] = [0, extra].map(|extra| {
            let docs: DocTable =
                (0..600 + extra).map(|i| format!("dir{}/doc{i:04}.txt", i % 7)).collect();
            let root = dir.0.join(format!("s{segments}-{extra}"));
            let mut store = IndexStore::open(&root).unwrap();
            if segments == 1 {
                store.replace_with(&replicas, &docs).unwrap();
            } else {
                store.start(&docs).unwrap();
                for replica in &replicas {
                    store.append(std::slice::from_ref(replica), &docs).unwrap();
                }
            }
            assert_eq!(store.segment_count(), segments);
            let (snapshot, allocations) =
                allocations_during(|| IndexSnapshot::load(&store, 1).expect("the store loads"));
            assert_eq!(snapshot.doc_count(), 600 + extra);
            allocations
        });
        with - without
    };
    let (one, thirty) = (attributable(1), attributable(30));
    eprintln!("{extra} more documents: {one} allocations (1 segment), {thirty} (30 segments)");
    for attributed in [one, thirty] {
        assert!(attributed.abs_diff(extra as u64) <= 4, "{attributed}: one string a document");
    }
}

#[test]
fn cached_answers_hold_the_result_limit_however_many_documents_matched() {
    let _turn = ONE_TEST_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    // 1500 documents; every word below matches at least 1000 of them.
    let mut docs = DocTable::new();
    let mut index = InMemoryIndex::new();
    for d in 0..1500u32 {
        let id = docs.insert(format!("dir{:02}/doc{d:04}.txt", d % 17));
        let mut words: Vec<Term> = (0..16)
            .filter(|w| !(d + w).is_multiple_of(4))
            .map(|w| Term::from(format!("common{w:02}")))
            .collect();
        words.push(Term::from(format!("rare{d:04}")));
        index.insert_file(id, words);
    }
    let config = EngineConfig { cache_capacity: 256, ..EngineConfig::default() };
    let limit = config.result_limit;
    let engine = QueryEngine::new(IndexSnapshot::from_index(index, docs, 1), config).unwrap();

    // 16 prefix queries and 240 AND-NOT queries, all distinct: the boolean
    // path, which matches ids first and ranks them after.
    let mut queries: Vec<String> = (0..16).map(|w| format!("common{w:02}*")).collect();
    for a in 0..16 {
        for b in (0..16).filter(|&b| b != a) {
            queries.push(format!("common{a:02} NOT rare{:04}", a * 16 + b));
        }
    }
    assert_eq!(queries.len(), 256);
    let mut cached_bytes = 0;
    for query in &queries {
        let full = engine.snapshot_cell().load().search(&Query::parse(query).unwrap());
        assert!(full.len() >= 1000, "{query} matched only {}", full.len());
        let response = engine.execute(query).unwrap();
        assert_eq!(response.results.hits(), &full.hits()[..limit], "{query}");
        // The response shares the cached value.
        cached_bytes += response.results.heap_bytes();
    }
    assert_eq!(engine.cache_counters().insertions, 256);
    assert!(
        cached_bytes <= 256 * limit * std::mem::size_of::<Hit>(),
        "{cached_bytes} bytes of hit vectors in a 256-entry cache of top-{limit}s"
    );
    let (_, cache_resident) = engine.resident_bytes();
    assert!(cache_resident >= cached_bytes && cache_resident < 4 * cached_bytes);
}
