//! On-disk persistence and incremental re-indexing for `dsearch`.
//!
//! The paper regenerates the whole index on every run — reasonable for a
//! benchmark, not for a desktop-search engine a user actually runs.  This
//! crate adds the two pieces a deployed index generator needs around the
//! paper's pipeline, without changing the pipeline itself:
//!
//! * **Persistence** ([`segment`], [`store`]) — a compact binary segment
//!   format (delta-encoded, block-compressed posting lists under the
//!   word-at-a-time [`checksum`]) and an [`store::IndexStore`] directory
//!   of one doc file, term-only segments over it, and a manifest.  The
//!   replicas Implementation 3 leaves un-joined are merged as they are
//!   sealed and committed as one segment — the file their join would have
//!   been written as, without the join — so a store does not say how many
//!   threads built it.
//! * **Change detection for incremental re-indexing** ([`incremental`]) —
//!   per-file signatures (size + FNV-1a content hash) persisted in a
//!   [`incremental::SignatureDb`], whose `diff` tells the next run which
//!   files were added, modified or removed since.  No file is tokenized
//!   here: the changed ones go through the paper's pipeline
//!   (`dsearch_core::IndexGenerator::update_store`), and what the store
//!   held is merged with what that run built by the same k-source seal.
//!
//! # Example
//!
//! ```
//! use dsearch_index::{DocTable, InMemoryIndex};
//! use dsearch_persist::segment::{read_docs, read_segment, write_docs, write_segment};
//! use dsearch_text::Term;
//!
//! # fn main() -> Result<(), dsearch_persist::PersistError> {
//! let mut docs = DocTable::new();
//! let id = docs.insert("a.txt");
//! let mut index = InMemoryIndex::new();
//! index.insert_file(id, [Term::from("hello"), Term::from("world")]);
//!
//! let (mut segment, mut doc_file) = (Vec::new(), Vec::new());
//! write_segment(&index, docs.len(), std::io::Cursor::new(&mut segment))?;
//! write_docs(&docs, &mut doc_file)?;
//! assert_eq!(read_segment(&segment[..])?, (index, 1));
//! assert_eq!(read_docs(&doc_file[..])?, docs);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod checksum;
pub mod error;
pub mod incremental;
pub mod segment;
pub mod store;

pub use checkpoint::{BuildCheckpoint, DeadLetter, DeadLetterQueue, CHECKPOINT_FILE, DLQ_FILE};
pub use error::PersistError;
pub use incremental::{ChangeSet, FileSignature, SignatureDb, SIGNATURES_FILE};
pub use segment::{
    read_docs, read_segment, read_segment_sealed, write_docs, write_segment, write_segment_merged,
    SegmentInfo,
};
pub use store::{IndexStore, StoreManifest};
