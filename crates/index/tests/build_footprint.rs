//! The memory contract of the build's in-memory index, counted — no clock,
//! no RSS.
//!
//! * A replica holds its postings at about the size of the segment it will
//!   be sealed into: the live heap behind an `InMemoryIndex` is at most 2.5 ×
//!   the bytes of its sealed term entries (two `Vec<u32>` per list were
//!   8.3 × on this input).
//! * An id that arrives late is spliced in from the end of its list: no
//!   scratch to decode into, no re-encoding, so no allocation beyond the
//!   stream's own growth — the O(distance) contract, as a count.
//!
//! The counters are thread-local, so the tests of this binary do not see
//! each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsearch_index::varint::write_varint;
use dsearch_index::{encode_term, FileId, InMemoryIndex, PostingList, SealedTerms};
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

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is two thread-local counter bumps
// that neither allocate (const-initialised `Cell`s, no destructor) nor
// unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
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

/// The sealed term entries of `index`, as a segment carries them.
fn sealed_bytes(index: &InMemoryIndex) -> usize {
    let terms = SealedTerms::new(index);
    let mut bytes = Vec::new();
    write_varint(&mut bytes, terms.len() as u64);
    for (term, postings) in terms {
        encode_term(&mut bytes, term.as_str(), postings.view());
    }
    bytes.len()
}

#[test]
fn a_replica_holds_its_postings_at_the_size_of_its_segment() {
    // The vocabulary exists before the index does, as the extractor's
    // interner holds it in a build: the index shares the strings.
    let vocabulary: Vec<Term> =
        (0..VOCABULARY).map(|rank| Term::from(format!("w{rank}"))).collect();
    // Zipf, exponent 1.05: the cumulative weights to draw ranks from.
    let mut cumulative = Vec::with_capacity(VOCABULARY);
    let mut total = 0.0f64;
    for rank in 1..=VOCABULARY {
        total += 1.0 / (rank as f64).powf(1.05);
        cumulative.push(total);
    }
    let mut rng = Rng(18);
    // One file's condensed word list, reused from file to file.
    let mut counts = vec![0u32; VOCABULARY];
    let mut ranks: Vec<usize> = Vec::with_capacity(VOCABULARY);

    let live_before = LIVE_BYTES.with(Cell::get);
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
            FileId(2 * file),
            ranks.iter().map(|&rank| (vocabulary[rank].clone(), std::mem::take(&mut counts[rank]))),
        );
    }
    let live = usize::try_from(LIVE_BYTES.with(Cell::get) - live_before).unwrap();

    let postings = index.posting_count();
    assert!(postings >= 200_000, "only {postings} postings");
    let counted =
        index.iter().flat_map(|(_, list)| list.iter_counted()).filter(|p| p.1 > 1).count();
    assert!(
        (postings / 10..postings * 9 / 10).contains(&(counted as u64)),
        "frequencies are not mixed: {counted} of {postings} above 1"
    );
    let sealed = sealed_bytes(&index);
    assert!(
        live * 2 <= sealed * 5,
        "{live} bytes live behind {postings} postings that seal to {sealed} bytes ({:.2} x)",
        live as f64 / sealed as f64
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

fn allocations_during<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = work();
    (value, ALLOCATIONS.with(Cell::get) - before)
}
