//! The memory contract of the build's in-memory index, counted — no clock,
//! no RSS.
//!
//! * A replica holds its postings at about the size of the segment it will
//!   be sealed into: the live heap behind an `InMemoryIndex` is at most 3.67
//!   bytes a posting — what 2.5 × the bytes of its sealed term entries came
//!   to while a segment packed every block at its widest value (two
//!   `Vec<u32>` per list were 12.2 bytes a posting on this input).  The
//!   sealed bytes have their own bound, so that neither side of the old
//!   ratio can grow behind the other.
//! * A sealed posting costs what its values need, not what the largest
//!   value of its block needs: term frequencies, mostly 1 with a few large,
//!   seal to at most 2.5 bits each where packing at the widest takes 4.
//! * An id that arrives late is spliced in from the end of its list: no
//!   scratch to decode into, no re-encoding, so no allocation beyond the
//!   stream's own growth — the O(distance) contract, as a count.
//!
//! * Two replicas sealed into one shard are merged in the encoding thread's
//!   reused buffers — no allocation a term or a posting beyond what sealing
//!   their join performs — and handed out a chunk at a time: what is in
//!   flight is a small share of the encoded shard.
//!
//! * A document-length table costs what was recorded, not the span of the
//!   ids it was recorded at: lengths at ids 0 and `u32::MAX − 257` seal
//!   in a few kilobytes, where a dense norm table over that span took
//!   16 GiB.
//!
//! * The public build API takes any `FileId` a caller passes, across all of
//!   `u32`: inserting, sealing and writing a segment each return (`Ok` or
//!   `Err`), and none of them sizes an allocation by an id.
//!
//! The counters are thread-local, so the tests of this binary do not see
//! each other's allocations.  An allocation of more than 1 GiB is refused
//! (the test aborts on it) rather than attempted: under overcommit it could
//! succeed and then fill the machine's memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use dsearch_index::{
    join_all, DocTable, FileId, InMemoryIndex, PostingList, SealedShard, SealedTerms, SectionBytes,
    BLOCK_SIZE,
};
use dsearch_persist::segment::write_segment;
use dsearch_persist::IndexStore;
use dsearch_text::Term;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(calls: u64, bytes: i64) {
    ALLOCATIONS.with(|n| n.set(n.get() + calls));
    LIVE_BYTES.with(|n| n.set(n.get() + bytes));
}

struct Counting;

/// The largest allocation the counting allocator passes on (1 GiB).
const REFUSED_ABOVE: usize = 1 << 30;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is two thread-local counter bumps
// that neither allocate (const-initialised `Cell`s, no destructor) nor
// unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > REFUSED_ABOVE {
            return std::ptr::null_mut();
        }
        note(1, layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > REFUSED_ABOVE {
            return std::ptr::null_mut();
        }
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A fixed pseudo-random sequence (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The benchmark corpus in small, as one of two replicas sees it: a Zipf
/// vocabulary, many small files of log-normal length, one large straggler,
/// every other file id.
const VOCABULARY: usize = 15_000;
const FILES: u32 = 2_500;
const MEDIAN_WORDS: f64 = 280.0;
const LARGE_FILE_WORDS: usize = 150_000;

/// The vocabulary, which exists before the index does, as the extractor's
/// interner holds it in a build: the index shares the strings.
fn vocabulary() -> Vec<Term> {
    (0..VOCABULARY).map(|rank| Term::from(format!("w{rank}"))).collect()
}

/// The replica: everything it leaves allocated is the index's.
fn replica(vocabulary: &[Term]) -> InMemoryIndex {
    replica_of(vocabulary, 18, 0)
}

/// A replica drawn from `seed` that holds the file ids `2 * file + odd`.
fn replica_of(vocabulary: &[Term], seed: u64, odd: u32) -> InMemoryIndex {
    // Zipf, exponent 1.05: the cumulative weights to draw ranks from.
    let mut cumulative = Vec::with_capacity(VOCABULARY);
    let mut total = 0.0f64;
    for rank in 1..=VOCABULARY {
        total += 1.0 / (rank as f64).powf(1.05);
        cumulative.push(total);
    }
    let mut rng = Rng(seed);
    // One file's condensed word list, reused from file to file.
    let mut counts = vec![0u32; VOCABULARY];
    let mut ranks: Vec<usize> = Vec::with_capacity(VOCABULARY);

    let mut index = InMemoryIndex::new();
    for file in 0..FILES {
        let words = if file == FILES / 2 {
            LARGE_FILE_WORDS
        } else {
            // Log-normal, sigma 1 (Box–Muller).
            let normal = (-2.0 * (1.0 - rng.unit()).ln()).sqrt()
                * (std::f64::consts::TAU * rng.unit()).cos();
            (MEDIAN_WORDS * normal.exp()) as usize + 1
        };
        ranks.clear();
        for _ in 0..words {
            let rank = cumulative.partition_point(|&c| c < rng.unit() * total).min(VOCABULARY - 1);
            if counts[rank] == 0 {
                ranks.push(rank);
            }
            counts[rank] += 1;
        }
        index.insert_file_counted(
            FileId(2 * file + odd),
            ranks.iter().map(|&rank| (vocabulary[rank].clone(), std::mem::take(&mut counts[rank]))),
        );
    }
    index
}

#[test]
fn a_replica_holds_its_postings_at_the_size_of_its_segment() {
    let vocabulary = vocabulary();
    let live_before = LIVE_BYTES.with(Cell::get);
    let index = replica(&vocabulary);
    let live = usize::try_from(LIVE_BYTES.with(Cell::get) - live_before).unwrap();

    let postings = index.posting_count();
    assert!(postings >= 200_000, "only {postings} postings");
    let counted =
        index.iter().flat_map(|(_, list)| list.iter_counted()).filter(|p| p.1 > 1).count();
    assert!(
        (postings / 10..postings * 9 / 10).contains(&(counted as u64)),
        "frequencies are not mixed: {counted} of {postings} above 1"
    );
    assert!(
        live as u64 * 100 <= postings * 367,
        "{live} bytes live behind {postings} postings ({:.2} a posting)",
        live as f64 / postings as f64
    );
    // What `dsearch index` prints as `index heap` is that figure, but for
    // the per-file length table.
    let reported = index.heap_bytes();
    assert!(
        reported <= live && live - reported <= 64 * FILES as usize,
        "heap_bytes() says {reported}, the allocator {live}"
    );
}

#[test]
fn a_sealed_posting_costs_what_its_values_need_not_what_the_widest_needs() {
    let index = replica(&vocabulary());
    let postings = index.posting_count();
    let mut sealed = SectionBytes::default();
    // What the frequency payloads take when every block is packed at the
    // width of its largest value (a block of equal values: two bytes).
    let mut at_the_widest = 0u64;
    let (mut entry, mut tfs, mut previous) = (Vec::new(), Vec::new(), String::new());
    for (slot, (term, list)) in SealedShard::from_index(&index).iter().enumerate() {
        entry.clear();
        sealed += dsearch_index::encode_term(&mut entry, slot, &previous, &term, list);
        previous = term;
        list.decode_freqs_into(&mut tfs);
        for block in tfs.chunks(BLOCK_SIZE) {
            let (least, most) = (*block.iter().min().unwrap(), *block.iter().max().unwrap());
            let width = (32 - most.leading_zeros()) as usize;
            at_the_widest +=
                if least == most { 2 } else { 1 + (block.len() * width).div_ceil(8) as u64 };
        }
    }
    let bits = |bytes: u64| bytes as f64 * 8.0 / postings as f64;
    assert!(bits(at_the_widest) >= 4.0, "the input is too easy: {:.2}", bits(at_the_widest));
    assert!(
        bits(sealed.tfs) <= 2.5,
        "{} frequency bytes behind {postings} postings: {:.2} bits each, {:.2} at the widest",
        sealed.tfs,
        bits(sealed.tfs),
        bits(at_the_widest)
    );
    // And the whole entry: ids, frequencies, skips, bounds, term text.
    assert!(
        sealed.total() * 100 <= postings * 112,
        "{} sealed bytes behind {postings} postings ({:.3} a posting)",
        sealed.total(),
        sealed.total() as f64 / postings as f64
    );
}

/// Seals `sources` on this thread alone (so that this thread's counters see
/// all of it): the encoded bytes, the allocations made, and the most bytes
/// the encoding held — buffers and chunks in flight — while a chunk was
/// handed over.
fn seal_counted(sources: &[InMemoryIndex]) -> (u64, u64, i64) {
    let (mut bytes, mut most_live) = (0u64, 0i64);
    let ((), allocations) = allocations_during(|| {
        let sealing = SealedTerms::new(sources);
        let live_before = LIVE_BYTES.with(Cell::get);
        let Ok(()) = sealing.encode_on(1, |chunk| {
            bytes += chunk.bytes.len() as u64;
            most_live = most_live.max(LIVE_BYTES.with(Cell::get) - live_before);
            Ok::<(), std::convert::Infallible>(())
        });
    });
    (bytes, allocations, most_live)
}

#[test]
fn replicas_merge_in_the_seals_buffers_and_leave_a_chunk_at_a_time() {
    let vocabulary = vocabulary();
    let replicas = [replica_of(&vocabulary, 18, 0), replica_of(&vocabulary, 81, 1)];
    let postings: u64 = replicas.iter().map(InMemoryIndex::posting_count).sum();
    assert!(postings >= 400_000, "only {postings} postings");
    let shared = replicas[0].iter().filter(|(term, _)| replicas[1].contains_term(term)).count();
    assert!(shared >= VOCABULARY / 5, "only {shared} terms need merging");

    let (merged_bytes, merged_allocations, merged_live) = seal_counted(&replicas);
    let joined = join_all(replicas.to_vec());
    let (joined_bytes, joined_allocations, _) = seal_counted(std::slice::from_ref(&joined));
    assert_eq!(merged_bytes, joined_bytes);
    // Merging allocates what its few buffers take to grow to the longest
    // list, once — not per term, not per posting.
    assert!(
        merged_allocations <= joined_allocations + 64,
        "{merged_allocations} allocations to seal the replicas, {joined_allocations} their join"
    );
    // In flight: the buffers and a chunk — never the shard.
    assert!(
        (merged_live as u64) < merged_bytes / 4,
        "{merged_live} bytes live while a chunk of {merged_bytes} sealed bytes was handed over"
    );
}

#[test]
fn a_late_id_is_spliced_in_without_a_scratch() {
    // 100 000 postings two ids apart, with frequencies of one and two bytes.
    let mut list: PostingList = (0..100_000u32).map(|i| (FileId(2 * i), i % 300 + 1)).collect();
    let (_, allocations) = allocations_during(|| {
        for late in 0..1_000u32 {
            // 500 postings from the end, and one more each time.
            let id = FileId(2 * (100_000 - 500 - late) + 1);
            assert!(list.add_with_tf(id, late % 200 + 1));
        }
    });
    assert_eq!(list.len(), 101_000);
    assert!(
        allocations <= 16,
        "{allocations} allocations for 1000 late adds: something decodes or re-encodes the list"
    );
    // Spliced where they belong.
    let ids = list.doc_ids();
    assert!(ids.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(list.tf_of(FileId(2 * (100_000 - 500) + 1)), Some(1));
    assert_eq!(list.tf_of(FileId(2 * (100_000 - 1_499) + 1)), Some(200));
}

#[test]
fn lengths_at_both_ends_of_the_ids_seal_in_the_memory_they_record() {
    // Three terms at id 0, one at `u32::MAX − 257`; the same lengths at
    // ids 0 and 1 seal into a dense table, the reference.
    let far = FileId(u32::MAX - 257);
    let index_at = |second: FileId| {
        let mut index = InMemoryIndex::new();
        index.insert_file(FileId(0), ["alpha", "beta", "gamma"].map(Term::from));
        index.insert_file(second, [Term::from("alpha")]);
        index
    };
    let (sparse, dense) = (index_at(far), index_at(FileId(1)));

    let live_before = LIVE_BYTES.with(Cell::get);
    let terms = SealedTerms::new(std::slice::from_ref(&sparse));
    let sealing = LIVE_BYTES.with(Cell::get) - live_before;
    drop(terms);
    assert!(sealing < 64 * 1024, "sealing two documents holds {sealing} bytes");

    let shard = SealedShard::from_index(&sparse);
    assert!(shard.resident_bytes() < 64 * 1024, "{} bytes", shard.resident_bytes());
    assert!(shard.has_scoring());
    let reference = SealedShard::from_index(&dense);
    assert_eq!(shard.doc_norm(FileId(0)), reference.doc_norm(FileId(0)));
    assert_eq!(shard.doc_norm(far), reference.doc_norm(FileId(1)));
    assert_ne!(shard.doc_norm(FileId(0)), shard.doc_norm(far));
    // Ids with no recorded length read as neutral, on both sides.
    for id in [FileId(1), FileId(1 << 20), FileId(u32::MAX)] {
        assert_eq!(shard.doc_norm(id), reference.doc_norm(FileId(7)), "{id:?}");
    }
    let bound = |shard: &SealedShard| shard.postings(&Term::from("alpha")).unwrap().bound();
    assert_eq!(bound(&shard), bound(&reference), "list bounds come from the same norms");
}

#[test]
fn short_lists_decode_without_allocating() {
    let vocabulary = vocabulary();
    let shard = SealedShard::from_index(&replica(&vocabulary));
    let short: Vec<_> = shard.iter().map(|(_, list)| list).filter(|list| list.is_short()).collect();
    assert!(short.len() > 1_000, "only {} short lists", short.len());
    assert!(short.iter().any(|list| !list.freqs().is_empty()));
    let mut ids = Vec::with_capacity(BLOCK_SIZE);
    let (walked, allocations) = allocations_during(|| {
        let mut walked = 0;
        for list in &short {
            list.decode_into(&mut ids);
            let mut cursor = list.cursor();
            let (from_cursor, tfs) = cursor.block_tfs();
            assert_eq!((from_cursor, tfs.len()), (&ids[..], ids.len()));
            walked += tfs.iter().map(|&tf| u64::from(tf)).sum::<u64>().min(1);
        }
        walked
    });
    assert_eq!((walked, allocations), (short.len() as u64, 0));
}

#[test]
fn a_segment_over_4_gib_is_refused_before_a_buffer_is_sized_by_it() {
    // One byte over what a shard's `u32` offsets reach, as a sparse file:
    // reading it whole would ask this binary's allocator for 4 GiB, and the
    // test would abort.
    let dir = std::env::temp_dir().join(format!("dsearch-oversized-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = IndexStore::open(&dir).unwrap();
    let mut docs = DocTable::new();
    let mut index = InMemoryIndex::new();
    index.insert_file(docs.insert("a.txt"), [Term::from("alpha")]);
    store.replace_with(std::slice::from_ref(&index), &docs).unwrap();
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .find(|path| path.extension().is_some_and(|ext| ext == "dsg"))
        .unwrap();
    std::fs::OpenOptions::new().write(true).open(&segment).unwrap().set_len((1 << 32) + 1).unwrap();
    let refused = [store.load_all_sealed().err(), store.load_all().map(drop).err()];
    let _ = std::fs::remove_dir_all(&dir);
    for error in refused {
        let error = error.expect("an oversized segment is an error").to_string();
        assert!(error.contains("shards over 4 GiB are not supported"), "{error}");
    }
}

/// A file id anywhere in `u32`, at either end of it one time in four each.
fn any_file_id() -> impl Strategy<Value = FileId> {
    (0u8..4, any::<u32>()).prop_map(|(end, id)| {
        FileId(match end {
            0 => id % 4,
            1 => u32::MAX - id % 4,
            _ => id,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn any_file_ids_insert_seal_and_write_without_aborting(
        inserts in proptest::collection::vec(
            (any_file_id(), 0usize..4, 0u32..4, any::<bool>()),
            1..24,
        ),
        documents in 0u32..6,
    ) {
        let words = ["alpha", "beta", "gamma", "delta"].map(Term::from);
        let mut index = InMemoryIndex::new();
        for (file, word, count, by_file) in inserts {
            let term = words[word].clone();
            if by_file {
                index.insert_file_counted(file, [(term, count)]);
            } else {
                index.insert_occurrences(file, term, count);
            }
        }
        let shard = SealedShard::from_index(&index);
        prop_assert_eq!(shard.term_count(), index.term_count());
        prop_assert_eq!(shard.posting_count(), index.posting_count());
        for (term, list) in index.iter() {
            let sealed = shard.postings(term).expect("every term is sealed");
            prop_assert_eq!(sealed.len(), list.len());
        }

        let mut docs = DocTable::new();
        for n in 0..documents {
            docs.insert(format!("f{n}.txt"));
        }
        // A segment the doc table cannot describe may be refused; one it
        // can is written.
        let written = write_segment(&index, docs.len(), std::io::Cursor::new(Vec::new()));
        let described = index.iter().all(|(_, list)| list.iter().all(|id| id.0 < documents));
        prop_assert!(written.is_ok() || !described, "{:?}", written.err());
    }
}

fn allocations_during<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = work();
    (value, ALLOCATIONS.with(Cell::get) - before)
}
