//! The parallel index generator for desktop search — the primary contribution
//! of Meder & Tichy, *"Parallelizing an Index Generator for Desktop Search"*
//! (KIT technical report 2010-9).
//!
//! The generator runs in three stages:
//!
//! 1. **Filename generation** ([`stage1`]) — a single thread traverses the
//!    directory tree and produces the complete list of files (the paper
//!    measured this at 2–5 % of the runtime, so it is not parallelised).
//! 2. **Term extraction** ([`stage2`]) — *x* extractor threads read their
//!    private share of the files (dealt round-robin, see [`distribute`]),
//!    tokenize them and build a de-duplicated word list per file.
//! 3. **Index update** ([`stage3`]) — the word lists are inserted into the
//!    inverted index, either directly by the extractors or by *y* dedicated
//!    updater threads fed through a bounded buffer.
//!
//! Three implementations of the index-update interaction are provided, exactly
//! as compared in the paper ([`config::Implementation`]):
//!
//! | Implementation | Index organisation | Final step |
//! |---|---|---|
//! | 1 `SharedLocked`   | one shared index, locked per file insert | — |
//! | 2 `ReplicateJoin`  | one private replica per updating thread | replicas joined by *z* threads |
//! | 3 `ReplicateNoJoin`| one private replica per updating thread | replicas kept; queries search them all |
//!
//! [`runner::IndexGenerator`] orchestrates a run for any `(x, y, z)`
//! configuration and returns a [`report::RunReport`] with per-stage timings —
//! the quantities the paper's Tables 1–4 are built from.  An incremental
//! update of a persisted index ([`incremental`]) is the same run over the
//! files that changed: a filter behind Stage 1, not a second indexer.
//!
//! # Example
//!
//! ```
//! use dsearch_core::config::{Configuration, Implementation};
//! use dsearch_core::runner::IndexGenerator;
//! use dsearch_corpus::{materialize_to_memfs, CorpusSpec};
//! use dsearch_vfs::VPath;
//!
//! let (fs, _) = materialize_to_memfs(&CorpusSpec::tiny(), 7);
//! let generator = IndexGenerator::default();
//! let run = generator
//!     .run(&fs, &VPath::root(), Implementation::SharedLocked, Configuration::new(2, 0, 0))
//!     .unwrap();
//! assert!(run.outcome.file_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod distribute;
pub mod error;
pub mod incremental;
pub mod pipeline;
pub mod report;
pub mod runner;
pub mod stage1;
pub mod stage2;
pub mod stage3;
pub mod timing;

pub use config::{Configuration, GeneratorOptions, Implementation};
pub use error::PipelineError;
pub use incremental::IncrementalRun;
pub use pipeline::{
    corpus_fingerprint, BuildOptions, BuildPipeline, BuildReport, CancelToken, CounterSnapshot,
    ReplayReport,
};
pub use report::{IndexOutcome, ParallelRun, RunReport, SequentialRun};
pub use runner::IndexGenerator;
pub use timing::StageTimings;

/// What the tests share: a scratch directory, and the two ways they compare
/// indexes — an index is what it seals to, or, where ids differ, what it
/// says about each path.
#[cfg(test)]
pub(crate) mod testing {
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};

    use dsearch_index::{join_all, DocTable, InMemoryIndex};
    use dsearch_persist::IndexStore;

    /// A directory under the system's temp directory, removed on drop.
    pub(crate) struct TempDir(pub(crate) PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> Self {
            let unique = format!(
                "dsearch-core-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            );
            let path = std::env::temp_dir().join(unique.replace(['(', ')', ' '], ""));
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

    /// The segment `index` is written as — postings, frequencies, lengths and
    /// list bounds, where `InMemoryIndex: PartialEq` sees id sets only.
    pub(crate) fn segment_bytes(index: &InMemoryIndex, docs: &DocTable) -> Vec<u8> {
        let mut bytes = Vec::new();
        dsearch_persist::write_segment(index, docs, std::io::Cursor::new(&mut bytes))
            .expect("writing to memory does not fail");
        bytes
    }

    /// Everything the store at `root` holds, joined, over the document table
    /// its segments share.
    pub(crate) fn stored(root: &Path) -> (InMemoryIndex, DocTable) {
        let (indexes, tables): (Vec<_>, Vec<DocTable>) =
            IndexStore::open(root).unwrap().load_all().unwrap().into_iter().unzip();
        (join_all(indexes), tables.into_iter().next().unwrap_or_default())
    }

    /// `(term, path) → tf` and `path → length`: what an index says, whatever
    /// ids it says it under.
    pub(crate) type ByPath = (BTreeMap<(String, String), u32>, BTreeMap<String, u32>);

    pub(crate) fn by_path(index: &InMemoryIndex, docs: &DocTable) -> ByPath {
        let path = |id| docs.path(id).expect("every posting is of a known document").to_owned();
        let mut postings = BTreeMap::new();
        for (term, list) in index.iter() {
            for (id, tf) in list.iter_counted() {
                postings.insert((term.as_str().to_owned(), path(id)), tf);
            }
        }
        (postings, index.doc_lens().map(|(id, len)| (path(id), len)).collect())
    }
}
