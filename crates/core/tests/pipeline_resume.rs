//! Property test: a checkpointed build that is interrupted at an arbitrary
//! point and then resumed produces a store that is query-equivalent to an
//! uninterrupted batch build of the same corpus.
//!
//! This is the contract that makes `--resume` safe to recommend: no matter
//! where the "crash" lands relative to checkpoint boundaries (every-item
//! checkpoints or coarse intervals, one extractor or several), the resumed
//! store's joined index, with its document table, seals to the bytes of the
//! index the paper's in-memory pipeline builds in one go.

use std::path::PathBuf;
use std::time::Duration;

use proptest::prelude::*;

use dsearch_core::pipeline::{BuildOptions, BuildPipeline};
use dsearch_core::runner::IndexGenerator;
use dsearch_index::{join_all, DocTable, InMemoryIndex};
use dsearch_persist::{write_docs, write_segment, BuildCheckpoint, IndexStore};
use dsearch_vfs::{MemFs, VPath};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let mut path = std::env::temp_dir();
        let unique = format!(
            "dsearch-resume-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        );
        path.push(unique.replace(['(', ')', ' '], ""));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything the store holds, joined, over its document table.
fn stored(store: &IndexStore) -> (InMemoryIndex, DocTable) {
    let (indexes, docs) = store.load_all().unwrap();
    (join_all(indexes), docs)
}

/// Deterministic synthetic corpus: `files` documents with word counts and
/// vocabulary driven by `seed` via a splitmix-style generator.
fn build_corpus(files: usize, seed: u64) -> MemFs {
    const WORDS: [&str; 12] = [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "index", "parallel", "desktop",
        "search", "thread", "segment",
    ];
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let fs = MemFs::new();
    for i in 0..files {
        let words = 1 + (next() % 24) as usize;
        let mut body = String::new();
        for _ in 0..words {
            body.push_str(WORDS[(next() % WORDS.len() as u64) as usize]);
            body.push(' ');
        }
        let dir = ["a", "b", "c"][(next() % 3) as usize];
        fs.add_file(&VPath::new(format!("{dir}/doc{i:03}.txt")), body.into_bytes()).unwrap();
    }
    fs
}

fn options(extractors: usize, checkpoint_every: Duration) -> BuildOptions {
    BuildOptions { extractors, checkpoint_every, ..BuildOptions::default() }
}

/// The doc file the persist crate's writer writes `docs` as, then the
/// segment it seals `index` to.
fn sealed(index: &InMemoryIndex, docs: &DocTable) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_docs(docs, &mut bytes).unwrap();
    let mut cursor = std::io::Cursor::new(&mut bytes);
    cursor.set_position(cursor.get_ref().len() as u64);
    write_segment(index, docs.len(), cursor).unwrap();
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Interrupt anywhere, resume, compare against the uninterrupted batch
    /// build.  `checkpoint_every` toggles between per-item checkpoints
    /// (every interruption lands exactly on a boundary) and a coarse
    /// interval (the unsealed tail must be re-extracted on resume).
    #[test]
    fn interrupted_and_resumed_build_equals_batch(
        files in 2usize..14,
        seed in any::<u64>(),
        stop_pct in 0u64..100,
        extractors in 1usize..4,
        per_item_checkpoints in any::<bool>(),
    ) {
        let fs = build_corpus(files, seed);
        let dir = TempDir::new("prop");
        let interval = if per_item_checkpoints {
            Duration::ZERO
        } else {
            Duration::from_millis(5)
        };
        let stop_after = 1 + stop_pct * (files as u64 - 1) / 100;

        let mut first = options(extractors, interval);
        first.stop_after = Some(stop_after);
        let report = BuildPipeline::new(first).build(&fs, &VPath::root(), &dir.0).unwrap();
        prop_assert!(report.interrupted);
        prop_assert!(report.counters.items_ok >= stop_after.min(files as u64));

        let mut second = options(extractors, interval);
        second.resume = true;
        let report = BuildPipeline::new(second).build(&fs, &VPath::root(), &dir.0).unwrap();
        prop_assert!(report.complete);
        prop_assert_eq!(report.counters.items_dead, 0);
        prop_assert_eq!(report.skipped + report.counters.items_ok, files as u64);

        let checkpoint = BuildCheckpoint::load(&dir.0).unwrap().unwrap();
        prop_assert!(checkpoint.complete);
        prop_assert_eq!(&checkpoint.completed, &[[0, files as u32]]);

        // Sealed bytes carry postings, frequencies, lengths, list bounds and
        // the document table, where `InMemoryIndex: PartialEq` sees id sets.
        let store = IndexStore::open(&dir.0).unwrap();
        let (resumed_index, resumed_docs) = stored(&store);
        let batch = IndexGenerator::default().run_sequential(&fs, &VPath::root()).unwrap();
        prop_assert!(
            sealed(&resumed_index, &resumed_docs) == sealed(&batch.index, &batch.docs),
            "the resumed store seals to other bytes than the batch build"
        );
    }

    /// Resuming an already-complete build is a no-op that changes nothing.
    #[test]
    fn resume_of_a_complete_build_is_idempotent(
        files in 1usize..8,
        seed in any::<u64>(),
    ) {
        let fs = build_corpus(files, seed);
        let dir = TempDir::new("idem");
        let pipeline = BuildPipeline::new(options(2, Duration::ZERO));
        let report = pipeline.build(&fs, &VPath::root(), &dir.0).unwrap();
        prop_assert!(report.complete);
        let store = IndexStore::open(&dir.0).unwrap();
        let (index_before, _) = stored(&store);
        let segments_before = store.segment_count();

        let mut again = options(2, Duration::ZERO);
        again.resume = true;
        let report = BuildPipeline::new(again).build(&fs, &VPath::root(), &dir.0).unwrap();
        prop_assert!(report.complete);
        prop_assert_eq!(report.counters.items_ok, 0, "nothing re-extracted");
        prop_assert_eq!(report.skipped, files as u64);

        let store = IndexStore::open(&dir.0).unwrap();
        prop_assert_eq!(store.segment_count(), segments_before);
        let (index_after, _) = stored(&store);
        prop_assert_eq!(index_after, index_before);
    }
}
