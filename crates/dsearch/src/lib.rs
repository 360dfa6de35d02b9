//! `dsearch` — a reproduction of Meder & Tichy, *"Parallelizing an Index
//! Generator for Desktop Search"* (Karlsruhe Reports in Informatics 2010-9).
//!
//! This facade crate re-exports the whole system so applications can depend on
//! a single crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`text`] | `dsearch-text` | FNV hashing, hash containers, tokenizer, word lists |
//! | [`vfs`] | `dsearch-vfs` | file-system abstraction (memory, OS, counting) and the directory walker |
//! | [`corpus`] | `dsearch-corpus` | synthetic benchmark corpus generator (the paper's 51 000-file / 869 MB workload) |
//! | [`index`] | `dsearch-index` | inverted index: shared/locked, replicated, joined, sealed |
//! | [`core`] | `dsearch-core` | the three-stage parallel index generator and its three implementations |
//! | [`query`] | `dsearch-query` | boolean search over single or replicated indices |
//! | [`obs`] | `dsearch-obs` | observability: metrics registry, query tracing, slow-query log |
//! | [`server`] | `dsearch-server` | concurrent query serving: snapshots, worker pool, cache, load generator |
//! | [`sim`] | `dsearch-sim` | calibrated models of the paper's 4-, 8- and 32-core platforms |
//!
//! # Quick start
//!
//! ```
//! use dsearch::corpus::{materialize_to_memfs, CorpusSpec};
//! use dsearch::core::{Configuration, Implementation, IndexGenerator};
//! use dsearch::query::{Query, Searcher};
//! use dsearch::vfs::VPath;
//!
//! // 1. Create (or point at) a corpus.
//! let (fs, _manifest) = materialize_to_memfs(&CorpusSpec::tiny(), 42);
//!
//! // 2. Generate the index with one of the paper's parallel implementations.
//! let run = IndexGenerator::default()
//!     .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 0))
//!     .expect("index generation succeeds");
//! let (index, docs) = run.outcome.into_single_index();
//!
//! // 3. Search it.
//! let searcher = Searcher::new([&index], &docs);
//! let results = searcher.search(&Query::parse("the").unwrap_or_else(|_| Query::parse("a").unwrap()));
//! let _ = results.len();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Text substrate: FNV hashing, hash containers, tokenizer, word lists.
pub mod text {
    pub use dsearch_text::*;
}

/// File-system substrate: virtual paths, in-memory/OS/counting file systems,
/// directory walker.
pub mod vfs {
    pub use dsearch_vfs::*;
}

/// Synthetic corpus generation matching the paper's benchmark workload.
pub mod corpus {
    pub use dsearch_corpus::*;
}

/// File-format detection and plain-text extraction (the paper's "more file
/// formats" future-work item).
pub mod formats {
    pub use dsearch_formats::*;
}

/// The inverted index and its shared / replicated / joined variants.
pub mod index {
    pub use dsearch_index::*;
}

/// On-disk index persistence and incremental re-indexing.
pub mod persist {
    pub use dsearch_persist::*;
}

/// The parallel index generator (stages, distribution strategies, the three
/// implementations, run reports).
pub mod core {
    pub use dsearch_core::*;
}

/// Boolean search over single or replicated indices.
pub mod query {
    pub use dsearch_query::*;
}

/// Observability: the process-wide metrics registry behind `!metrics`,
/// per-query stage traces, and the slow-query log behind `!trace`/`!slow`.
pub mod obs {
    pub use dsearch_obs::*;
}

/// Concurrent query serving: snapshots with atomic reload, the worker-pool
/// query engine, the sharded result cache and the load generator.
pub mod server {
    pub use dsearch_server::*;
}

/// Calibrated platform models of the paper's three Intel testbeds.
pub mod sim {
    pub use dsearch_sim::*;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_are_wired() {
        // One symbol from each sub-crate proves the re-exports resolve.
        let _ = crate::text::fnv1a_64(b"smoke");
        let _ = crate::vfs::VPath::new("a/b");
        let _ = crate::corpus::CorpusSpec::tiny();
        let _ = crate::formats::FormatRegistry::with_builtins();
        let _ = crate::index::InMemoryIndex::new();
        let _ = crate::persist::FileSignature::from_bytes(b"smoke");
        let _ = crate::core::Configuration::new(1, 0, 0);
        let _ = crate::query::Query::parse("smoke").unwrap();
        let _ = crate::obs::Stage::Parse.as_str();
        let _ = crate::server::EngineConfig::default();
        let _ = crate::sim::PlatformModel::four_core();
    }
}
