//! Text substrate for the `dsearch` desktop-search index generator.
//!
//! This crate provides the low-level text machinery the paper's index
//! generator is built on:
//!
//! * [`decode`] — how bytes read as letters: UTF-8 else Latin-1, and the one
//!   table that folds accented Latin letters to ASCII;
//! * [`fnv`] — the FNV hash function the paper uses for both the shared index
//!   (Boost `unordered_map`) and the per-extractor duplicate elimination
//!   (`unordered_set`), in its 64-bit FNV-1a variant;
//! * [`hashtable`] — an open-addressing hash map built on FNV, mirroring the
//!   containers the original C++ implementation relied on;
//! * [`tokenizer`] — the term scanner that walks file contents byte by byte
//!   and extracts index terms (lower-cased runs of ASCII letters and digits,
//!   accented Latin letters folded to ASCII by one table); query words go
//!   through the same scanner, so a query term and an indexed term are one
//!   definition;
//! * [`wordlist`] — the per-file *condensed word list* (terms de-duplicated
//!   within one file) that extractor threads hand to the index *en bloc*.
//!
//! # Example
//!
//! ```
//! use dsearch_text::tokenizer::Tokenizer;
//! use dsearch_text::wordlist::WordListBuilder;
//!
//! let text = b"The quick brown fox jumps over the lazy dog. The fox!";
//! let tokenizer = Tokenizer::default();
//! let mut builder = WordListBuilder::new();
//! for term in tokenizer.terms(text) {
//!     builder.push(term);
//! }
//! let list = builder.finish();
//! // "the" and "fox" appear several times in the text but only once in the
//! // condensed word list.
//! assert_eq!(list.iter().filter(|t| t.as_str() == "fox").count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decode;
pub mod fnv;
pub mod hashtable;
pub mod tokenizer;
pub mod wordlist;

pub use decode::{fold, utf8_or_latin1};
pub use fnv::{fnv1a_64, FnvBuildHasher, FnvHasher};
pub use hashtable::FnvHashMap;
pub use tokenizer::{Term, TokenStats, Tokenizer, TokenizerOptions};
pub use wordlist::{WordList, WordListBuilder};
