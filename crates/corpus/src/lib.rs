//! Synthetic corpus generator for the desktop-search benchmark.
//!
//! The paper's benchmark is a directory of ≈51 000 plain-text files (many
//! small files plus five large ones) totalling ≈869 MB, produced by converting
//! word-processor documents to plain text.  That data set is not
//! redistributable, so this crate generates a synthetic corpus with the same
//! statistical shape:
//!
//! * a configurable number of **small files** whose sizes follow a log-normal
//!   distribution (most desktop documents are a few kB, with a long tail),
//! * a handful of **large files** (the paper has five),
//! * natural-language-like text drawn from a synthetic vocabulary with a
//!   **Zipfian** term distribution, so per-file duplicate ratios and index
//!   growth behave like real text.
//!
//! The [`spec::CorpusSpec`] describes a corpus; [`spec::CorpusSpec::paper`]
//! reproduces the paper's benchmark at full scale and
//! [`spec::CorpusSpec::paper_scaled`] produces a laptop-friendly scaled
//! version with identical shape.  [`materialize()`] writes the corpus into any
//! file-system sink (in-memory or on disk) and returns a manifest.
//!
//! # Example
//!
//! ```
//! use dsearch_corpus::{CorpusSpec, materialize_to_memfs};
//!
//! let spec = CorpusSpec::tiny();
//! let (fs, manifest) = materialize_to_memfs(&spec, 42);
//! assert_eq!(manifest.file_count() as usize, fs.file_count());
//! assert!(manifest.total_bytes() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod docgen;
pub mod materialize;
pub mod spec;
pub mod vocab;

pub use docgen::DocumentGenerator;
pub use materialize::{
    materialize, materialize_to_memfs, CorpusManifest, CorpusSink, ManifestEntry,
};
pub use spec::CorpusSpec;
pub use vocab::Vocabulary;
