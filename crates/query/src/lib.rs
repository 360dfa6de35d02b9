//! Search-query layer for `dsearch`.
//!
//! The paper's future-work section ("we will analyze how to integrate the
//! search query functionality and parallelize it as well, for instance by
//! using multiple indices") is implemented here:
//!
//! * [`query::Query`] — a small boolean query language (`AND`/`OR`/`NOT`,
//!   implicit `AND` between words, trailing-`*` prefix queries);
//! * [`search::evaluate`] — the one query evaluator: a window of decoded
//!   blocks at a time over the cursors of sealed shards, scoring by BM25
//!   (with MaxScore pruning) or by a constant;
//! * [`search::Searcher`] — seals one joined index (Implementations 1 and 2)
//!   or the un-joined replica set of Implementation 3 and evaluates against
//!   it, optionally with one thread per replica;
//! * [`results::SearchResults`] — ranked hits with their file paths.
//!
//! # Example
//!
//! ```
//! use dsearch_index::{DocTable, InMemoryIndex};
//! use dsearch_query::{Query, Searcher};
//! use dsearch_text::Term;
//!
//! let mut docs = DocTable::new();
//! let a = docs.insert("a.txt");
//! let b = docs.insert("b.txt");
//! let mut index = InMemoryIndex::new();
//! index.insert_file(a, [Term::from("rust"), Term::from("search")]);
//! index.insert_file(b, [Term::from("rust")]);
//!
//! let searcher = Searcher::new([&index], &docs);
//! let results = searcher.search(&Query::parse("rust AND search").unwrap());
//! assert_eq!(results.len(), 1);
//! assert_eq!(&*results.hits()[0].path, "a.txt");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod query;
pub mod results;
pub mod search;
mod topk;

pub use query::{ParseError, Query, QueryGroup, QueryTerm};
pub use results::{merge_ranked, Hit, RankedHit, SearchResults};
pub use search::{evaluate, scorable, PruneStats, Scorer, Searcher};
