//! Inverted index for the `dsearch` desktop-search engine.
//!
//! The index maps every term to the list of files it occurs in.  The paper
//! compares three ways of updating it from multiple term-extractor threads;
//! this crate provides the building blocks for all three:
//!
//! * [`InMemoryIndex`] — the single-threaded index structure (an FNV hash map
//!   from term to posting list, as in the original Boost-based C++ code);
//! * [`SharedIndex`] — one index behind a lock, updated by every thread
//!   (**Implementation 1**);
//! * [`join`] — merging per-thread replica indices at the end of the run,
//!   either with a single thread or as a parallel reduction
//!   (**Implementation 2**, the "Join Forces" pattern);
//! * [`IndexSet`] — a collection of un-joined replicas that can be searched
//!   together (**Implementation 3**);
//! * [`DocTable`] — the table mapping compact [`FileId`]s to file paths,
//!   assigned during filename generation so the extractors need no
//!   synchronisation to name files;
//! * [`block`] — block-compressed posting lists ([`CompressedPostings`]:
//!   128-id delta blocks with per-block skip metadata), the borrowed
//!   [`CompressedView`] every reader takes, and the skip-aware
//!   [`BlockCursor`]/[`SliceCursor`] cursors;
//! * [`interpolative`] — the code of a list of 6 to 128 postings: its ids
//!   by binary interpolative coding, its tfs above 1 as exceptions;
//! * [`sealed`] — [`SealedShard`], the immutable serving form: the encoded
//!   term entries of a segment in one buffer, indexed by flat tables;
//! * [`varint`] — the LEB128 writer and checking reader every encoded form
//!   shares.
//!
//! # Example
//!
//! ```
//! use dsearch_index::{DocTable, InMemoryIndex};
//! use dsearch_text::Term;
//!
//! let mut docs = DocTable::new();
//! let report = docs.insert("docs/report.txt");
//! let notes = docs.insert("docs/notes.txt");
//!
//! let mut index = InMemoryIndex::new();
//! index.insert_file(report, [Term::from("quarterly"), Term::from("revenue")]);
//! index.insert_file(notes, [Term::from("revenue"), Term::from("meeting")]);
//!
//! let hits = index.postings(&Term::from("revenue")).unwrap();
//! assert_eq!(hits.doc_ids(), &[report, notes]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod doc_table;
pub mod interpolative;
pub mod join;
pub mod memory_index;
pub mod posting;
pub mod sealed;
pub mod shared;
pub mod stats;
pub mod varint;

pub use block::{
    BlockCursor, BlockFormatError, CompressedPostings, CompressedView, PostingCursor, SkipEntry,
    SliceCursor, BLOCK_SIZE, SHORT_LIST_MIN,
};
pub use doc_table::{DocTable, FileId, PathOrderedDocs};
pub use join::{join_all, join_into, parallel_join};
pub use memory_index::InMemoryIndex;
pub use posting::PostingList;
pub use sealed::{
    bm25_bound, bm25_idf, bm25_neutral_norm, bm25_score, encode_term, SealedChunk, SealedShard,
    SealedTerms, SectionBytes, BM25_B, BM25_K1,
};
pub use shared::{IndexSet, SharedIndex};
pub use stats::IndexStats;
