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
//! The counters are thread-local, so the tests of this binary do not see
//! each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsearch_index::{
    join_all, FileId, InMemoryIndex, PostingList, SealedShard, SealedTerms, SectionBytes,
    BLOCK_SIZE,
};
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
    let (mut entry, mut tfs) = (Vec::new(), Vec::new());
    for (term, list) in SealedShard::from_index(&index).iter() {
        entry.clear();
        sealed += dsearch_index::encode_term(&mut entry, term, list);
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

fn allocations_during<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = work();
    (value, ALLOCATIONS.with(Cell::get) - before)
}
