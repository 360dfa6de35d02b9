//! The allocation contract of `core::stage2`, counted.
//!
//! Extraction allocates per *distinct* term, not per occurrence, and a word
//! met in an earlier file is not allocated again.  The count is exact and
//! repeats — no clock, no RSS — so a regression to per-occurrence allocation
//! (200 000 here) cannot hide in noise.  This binary holds a single test:
//! the counter is thread-local, but a quiet process keeps the bound honest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsearch_core::distribute::WorkItem;
use dsearch_core::stage2::Extractor;
use dsearch_index::FileId;
use dsearch_vfs::{MemFs, VPath};

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

const DISTINCT: usize = 2_000;
const OCCURRENCES: usize = 200_000;
/// Everything that is not one `Arc<str>` per new word: the file buffer, the
/// doubling growth of the word list's two vectors and of the builder's
/// table, the token buffer.
const FIXED_OVERHEAD: u64 = 64;

/// `OCCURRENCES` words over a `DISTINCT`-word vocabulary, walking it with
/// `stride` so two files order the same words differently.
fn text(stride: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..OCCURRENCES {
        out.extend_from_slice(format!("word{} ", (i * stride) % DISTINCT).as_bytes());
    }
    out
}

#[test]
fn extraction_allocates_per_distinct_term_and_not_at_all_for_known_words() {
    let fs = MemFs::new();
    let items: Vec<WorkItem> = [("first.txt", 1), ("second.txt", 7)]
        .into_iter()
        .enumerate()
        .map(|(id, (name, stride))| {
            let path = VPath::new(name);
            let bytes = text(stride);
            let size = bytes.len() as u64;
            fs.add_file(&path, bytes).unwrap();
            WorkItem { file_id: FileId(id as u32), path, size }
        })
        .collect();
    let mut extractor = Extractor::default();

    let (first, cold) = allocations_during(|| extractor.extract_file(&fs, &items[0]).unwrap());
    assert_eq!(first.terms.len(), DISTINCT);
    assert_eq!(first.occurrences, OCCURRENCES as u64);
    assert!(
        cold <= DISTINCT as u64 + FIXED_OVERHEAD,
        "{cold} allocations for {DISTINCT} distinct terms in {OCCURRENCES} occurrences"
    );

    let (second, warm) = allocations_during(|| extractor.extract_file(&fs, &items[1]).unwrap());
    assert_eq!(second.terms.len(), DISTINCT);
    assert_eq!(second.counts.iter().map(|&c| u64::from(c)).sum::<u64>(), OCCURRENCES as u64);
    assert!(warm <= FIXED_OVERHEAD, "{warm} allocations for a file of already-known words");

    // The second file's terms are the first file's strings, not copies.
    let known = first.terms.iter().find(|t| t.as_str() == second.terms[1].as_str()).unwrap();
    assert_eq!(known.as_str().as_ptr(), second.terms[1].as_str().as_ptr());
}
