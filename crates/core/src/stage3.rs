//! Stage 3: index update.
//!
//! The update stage receives [`FileTerms`] records and applies them to the
//! index.  Which index it applies them to is the crux of the paper's three
//! implementations:
//!
//! * [`SharedSink`] inserts into the single locked [`SharedIndex`]
//!   (Implementation 1);
//! * [`ReplicaSink`] inserts into a thread-private [`InMemoryIndex`]
//!   (Implementations 2 and 3).
//!
//! Both sinks honour the configured [`InsertGranularity`]: en-bloc insertion
//! (one call — and for the shared index one lock acquisition — per file) or
//! per-term insertion (the ablation that floods the lock).

use serde::{Deserialize, Serialize};

use dsearch_index::{InMemoryIndex, SharedIndex};

use crate::config::InsertGranularity;
use crate::stage2::FileTerms;

/// Counters of applied updates.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stage3Stats {
    /// Files applied to the index.
    pub files: u64,
    /// Terms passed to the index (after any per-file de-duplication).
    pub terms: u64,
}

impl Stage3Stats {
    /// Merges another updater's counters into this one.
    pub fn merge(&mut self, other: &Stage3Stats) {
        self.files += other.files;
        self.terms += other.terms;
    }
}

/// Something that can absorb one file's terms.
pub trait UpdateSink {
    /// Applies one file's terms to the index.
    fn apply(&mut self, file: FileTerms);

    /// Counters accumulated so far.
    fn stats(&self) -> Stage3Stats;
}

/// Updates the single shared, locked index (Implementation 1).
#[derive(Debug, Clone)]
pub struct SharedSink {
    index: SharedIndex,
    granularity: InsertGranularity,
    stats: Stage3Stats,
}

impl SharedSink {
    /// Creates a sink inserting into `index`.
    #[must_use]
    pub fn new(index: SharedIndex, granularity: InsertGranularity) -> Self {
        SharedSink { index, granularity, stats: Stage3Stats::default() }
    }

    /// The shared index handle.
    #[must_use]
    pub fn index(&self) -> &SharedIndex {
        &self.index
    }
}

impl UpdateSink for SharedSink {
    fn apply(&mut self, file: FileTerms) {
        self.stats.files += 1;
        self.stats.terms += file.terms.len() as u64;
        let file_id = file.file_id;
        match self.granularity {
            InsertGranularity::EnBloc => {
                self.index.insert_file_counted(file_id, file.into_counted())
            }
            InsertGranularity::PerTerm => {
                // The file is accounted first, so that one without terms has
                // a recorded length as it has en bloc; then one update per
                // term, each with its count.
                self.index.insert_file_counted(file_id, []);
                for (term, count) in file.into_counted() {
                    self.index.insert_occurrences(file_id, term, count);
                }
            }
        }
    }

    fn stats(&self) -> Stage3Stats {
        self.stats
    }
}

/// Updates a thread-private replica index (Implementations 2 and 3).
#[derive(Debug, Default)]
pub struct ReplicaSink {
    index: InMemoryIndex,
    granularity: InsertGranularity,
    stats: Stage3Stats,
}

impl ReplicaSink {
    /// Creates an empty replica sink.
    #[must_use]
    pub fn new(granularity: InsertGranularity) -> Self {
        ReplicaSink { index: InMemoryIndex::new(), granularity, stats: Stage3Stats::default() }
    }

    /// Finishes the sink, returning the replica index it built.
    #[must_use]
    pub fn into_index(self) -> InMemoryIndex {
        self.index
    }

    /// Borrows the replica built so far.
    #[must_use]
    pub fn index(&self) -> &InMemoryIndex {
        &self.index
    }
}

impl UpdateSink for ReplicaSink {
    fn apply(&mut self, file: FileTerms) {
        self.stats.files += 1;
        self.stats.terms += file.terms.len() as u64;
        let file_id = file.file_id;
        match self.granularity {
            InsertGranularity::EnBloc => {
                self.index.insert_file_counted(file_id, file.into_counted())
            }
            InsertGranularity::PerTerm => {
                // The file is accounted first, so that one without terms has
                // a recorded length as it has en bloc; then one update per
                // term, each with its count.
                self.index.insert_file_counted(file_id, []);
                for (term, count) in file.into_counted() {
                    self.index.insert_occurrences(file_id, term, count);
                }
            }
        }
    }

    fn stats(&self) -> Stage3Stats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::segment_bytes;
    use dsearch_index::{DocTable, FileId};
    use dsearch_text::Term;

    fn file_terms(id: u32, words: &[&str]) -> FileTerms {
        FileTerms {
            file_id: FileId(id),
            terms: words.iter().map(|w| Term::from(*w)).collect(),
            counts: Vec::new(),
            occurrences: words.len() as u64,
            bytes: 100,
        }
    }

    #[test]
    fn shared_sink_en_bloc_and_per_term_agree() {
        let en_bloc = SharedIndex::new();
        let mut sink = SharedSink::new(en_bloc.clone(), InsertGranularity::EnBloc);
        sink.apply(file_terms(0, &["a", "b"]));
        sink.apply(file_terms(1, &["b", "c"]));

        let per_term = SharedIndex::new();
        let mut sink2 = SharedSink::new(per_term.clone(), InsertGranularity::PerTerm);
        sink2.apply(file_terms(0, &["a", "b"]));
        sink2.apply(file_terms(1, &["b", "c"]));

        assert_eq!(en_bloc.snapshot(), per_term.snapshot());
        assert_eq!(en_bloc.snapshot().file_count(), 2);
        assert_eq!(sink.stats(), sink2.stats());
        assert_eq!(sink.stats().files, 2);
        assert_eq!(sink.stats().terms, 4);
        assert_eq!(sink.index().stats().files, 2);
    }

    #[test]
    fn replica_sink_builds_private_index() {
        let mut sink = ReplicaSink::new(InsertGranularity::EnBloc);
        sink.apply(file_terms(0, &["x", "y"]));
        sink.apply(file_terms(1, &["y"]));
        assert_eq!(sink.stats().files, 2);
        assert_eq!(sink.stats().terms, 3);
        assert_eq!(sink.index().term_count(), 2);
        let index = sink.into_index();
        assert_eq!(index.postings(&Term::from("y")).unwrap().len(), 2);
        assert_eq!(index.file_count(), 2);
    }

    #[test]
    fn replica_sink_per_term_matches_en_bloc() {
        // A condensed word list with counts, a file without terms and a file
        // of raw occurrences: per term or en bloc, the replica seals to the
        // same bytes.
        let files = || {
            let mut counted = file_terms(0, &["common", "other", "rare"]);
            counted.counts = vec![3, 1, 7];
            let raw = file_terms(2, &["common", "other", "common", "common"]);
            [counted, file_terms(1, &[]), raw]
        };
        let mut docs = DocTable::new();
        for name in ["a", "b", "c"] {
            docs.insert(name);
        }
        let mut a = ReplicaSink::new(InsertGranularity::EnBloc);
        let mut b = ReplicaSink::new(InsertGranularity::PerTerm);
        for (for_a, for_b) in files().into_iter().zip(files()) {
            a.apply(for_a);
            b.apply(for_b);
        }
        let (a, b) = (a.into_index(), b.into_index());
        assert_eq!(a.postings(&Term::from("common")).unwrap().tf_of(FileId(2)), Some(3));
        assert_eq!((a.file_count(), b.file_count()), (3, 3));
        assert!(segment_bytes(&a, &docs) == segment_bytes(&b, &docs));
    }

    #[test]
    fn default_replica_sink_is_empty() {
        let sink = ReplicaSink::default();
        assert_eq!(sink.stats(), Stage3Stats::default());
        assert!(sink.into_index().is_empty());
    }

    #[test]
    fn stats_merge() {
        let mut a = Stage3Stats { files: 1, terms: 2 };
        a.merge(&Stage3Stats { files: 3, terms: 4 });
        assert_eq!(a, Stage3Stats { files: 4, terms: 6 });
    }
}
