//! Shared (locked) index and replica sets.
//!
//! * [`SharedIndex`] is **Implementation 1**: a single [`InMemoryIndex`]
//!   behind a mutex; every extractor (or dedicated updater thread) locks it to
//!   insert one file's word list.
//! * [`IndexSet`] is the result structure of **Implementation 3**: the
//!   per-thread replicas are kept separate and searched together.

use std::sync::Arc;

use parking_lot::Mutex;

use dsearch_text::tokenizer::Term;

use crate::doc_table::FileId;
use crate::memory_index::InMemoryIndex;
use crate::posting::PostingList;
use crate::stats::IndexStats;

/// A single shared index protected by a lock (Implementation 1).
///
/// Cloning the handle is cheap; all clones refer to the same index.
///
/// # Example
///
/// ```
/// use dsearch_index::{FileId, SharedIndex};
/// use dsearch_text::Term;
///
/// let index = SharedIndex::new();
/// let handle = index.clone();
/// std::thread::spawn(move || {
///     handle.insert_file(FileId(0), [Term::from("hello")]);
/// })
/// .join()
/// .unwrap();
/// index.insert_file(FileId(1), [Term::from("hello")]);
/// assert_eq!(index.snapshot().postings(&Term::from("hello")).unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedIndex {
    inner: Arc<Mutex<InMemoryIndex>>,
}

impl SharedIndex {
    /// Creates an empty shared index.
    #[must_use]
    pub fn new() -> Self {
        SharedIndex::default()
    }

    /// Inserts one file's de-duplicated terms under the lock.
    ///
    /// The whole word list is inserted while the lock is held (en-bloc
    /// insertion); this is the design the paper converged on for
    /// Implementation 1 because it amortises the lock acquisition over many
    /// terms.
    pub fn insert_file<I>(&self, file: FileId, terms: I)
    where
        I: IntoIterator<Item = Term>,
    {
        let mut idx = self.inner.lock();
        idx.insert_file(file, terms);
    }

    /// Inserts one file's terms with their occurrence counts under the lock
    /// (the counted variant of [`SharedIndex::insert_file`]).
    pub fn insert_file_counted<I>(&self, file: FileId, terms: I)
    where
        I: IntoIterator<Item = (Term, u32)>,
    {
        let mut idx = self.inner.lock();
        idx.insert_file_counted(file, terms);
    }

    /// Inserts `count` occurrences of `term` in `file` under the lock (the
    /// per-term update over a condensed word list: one lock acquisition per
    /// term).
    pub fn insert_occurrences(&self, file: FileId, term: Term, count: u32) {
        self.inner.lock().insert_occurrences(file, term, count);
    }

    /// The posting list for `term`, cloned out of the lock.
    #[must_use]
    pub fn postings(&self, term: &Term) -> Option<PostingList> {
        self.inner.lock().postings(term).cloned()
    }

    /// A full copy of the underlying index (for reporting and tests).
    #[must_use]
    pub fn snapshot(&self) -> InMemoryIndex {
        self.inner.lock().clone()
    }

    /// Consumes the handle; returns the index if this was the last handle,
    /// otherwise a clone.
    #[must_use]
    pub fn into_inner(self) -> InMemoryIndex {
        match Arc::try_unwrap(self.inner) {
            Ok(mutex) => mutex.into_inner(),
            Err(arc) => arc.lock().clone(),
        }
    }

    /// Summary statistics.
    #[must_use]
    pub fn stats(&self) -> IndexStats {
        self.inner.lock().stats()
    }

    /// Number of handles currently sharing this index (diagnostics).
    #[must_use]
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }
}

/// A set of un-joined per-thread replica indices (Implementation 3).
///
/// Searching consults every replica and unions the results; because each file
/// was assigned to exactly one extractor (round-robin distribution), each
/// replica holds a disjoint set of files and the union is duplicate-free by
/// construction.
#[derive(Debug, Clone, Default)]
pub struct IndexSet {
    replicas: Vec<InMemoryIndex>,
}

impl IndexSet {
    /// Creates a set from per-thread replicas.
    #[must_use]
    pub fn new(replicas: Vec<InMemoryIndex>) -> Self {
        IndexSet { replicas }
    }

    /// Number of replicas.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Returns `true` when the set holds no replicas.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Borrows the replicas.
    #[must_use]
    pub fn replicas(&self) -> &[InMemoryIndex] {
        &self.replicas
    }

    /// Consumes the set, returning the replicas.
    #[must_use]
    pub fn into_replicas(self) -> Vec<InMemoryIndex> {
        self.replicas
    }

    /// The union of the posting lists for `term` across every replica.
    #[must_use]
    pub fn postings(&self, term: &Term) -> PostingList {
        let mut out = PostingList::new();
        for list in self.posting_lists(term) {
            out.union_with(list);
        }
        out
    }

    /// Borrows the posting list of every replica that knows `term`, without
    /// merging.
    #[must_use]
    pub fn posting_lists(&self, term: &Term) -> Vec<&PostingList> {
        self.replicas.iter().filter_map(|replica| replica.postings(term)).collect()
    }

    /// Returns `true` when any replica contains `term`.
    #[must_use]
    pub fn contains_term(&self, term: &Term) -> bool {
        self.replicas.iter().any(|r| r.contains_term(term))
    }

    /// Joins all replicas into one index (turning an Implementation 3 result
    /// into an Implementation 2 result after the fact).
    #[must_use]
    pub fn join(self) -> InMemoryIndex {
        crate::join::join_all(self.replicas)
    }

    /// Aggregate statistics across replicas.
    #[must_use]
    pub fn stats(&self) -> IndexStats {
        let mut total = IndexStats::default();
        for r in &self.replicas {
            let s = r.stats();
            total.postings += s.postings;
            total.files += s.files;
            total.longest_posting_list = total.longest_posting_list.max(s.longest_posting_list);
            // distinct_terms across replicas can overlap; report the joined
            // count only when asked via join(); here we report the sum as an
            // upper bound.
            total.distinct_terms += s.distinct_terms;
        }
        total
    }

    /// Total files indexed across replicas.
    #[must_use]
    pub fn file_count(&self) -> u64 {
        self.replicas.iter().map(InMemoryIndex::file_count).sum()
    }
}

impl FromIterator<InMemoryIndex> for IndexSet {
    fn from_iter<I: IntoIterator<Item = InMemoryIndex>>(iter: I) -> Self {
        IndexSet { replicas: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Term {
        Term::from(s)
    }

    #[test]
    fn shared_index_serialises_concurrent_inserts() {
        let index = SharedIndex::new();
        let mut handles = Vec::new();
        for thread in 0..4u32 {
            let index = index.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u32 {
                    let file = FileId(thread * 50 + i);
                    index.insert_file(file, [t("common"), Term::from(format!("t{thread}"))]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = index.snapshot();
        assert_eq!(snap.file_count(), 200);
        assert_eq!(snap.postings(&t("common")).unwrap().len(), 200);
        assert_eq!(snap.term_count(), 5);
        assert_eq!(index.stats().files, 200);
    }

    #[test]
    fn shared_index_postings_and_occurrence_path() {
        let index = SharedIndex::new();
        index.insert_file_counted(FileId(1), []);
        index.insert_occurrences(FileId(1), t("x"), 1);
        index.insert_occurrences(FileId(1), t("x"), 1);
        assert_eq!(index.postings(&t("x")).unwrap().len(), 1);
        assert_eq!(index.postings(&t("x")).unwrap().tf_of(FileId(1)), Some(2));
        assert!(index.postings(&t("missing")).is_none());
        assert!(index.handle_count() >= 1);
        let inner = index.into_inner();
        assert_eq!(inner.file_count(), 1);
    }

    #[test]
    fn into_inner_with_outstanding_handle_clones() {
        let index = SharedIndex::new();
        index.insert_file(FileId(0), [t("a")]);
        let other = index.clone();
        let inner = index.into_inner();
        assert_eq!(inner.term_count(), 1);
        // The other handle still works.
        other.insert_file(FileId(1), [t("b")]);
        assert_eq!(other.snapshot().term_count(), 2);
    }

    #[test]
    fn index_set_unions_postings_across_replicas() {
        let mut r0 = InMemoryIndex::new();
        r0.insert_file(FileId(0), [t("shared"), t("only0")]);
        let mut r1 = InMemoryIndex::new();
        r1.insert_file(FileId(1), [t("shared"), t("only1")]);

        let set: IndexSet = vec![r0, r1].into_iter().collect();
        assert_eq!(set.replica_count(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.postings(&t("shared")).doc_ids(), &[FileId(0), FileId(1)]);
        assert_eq!(set.postings(&t("only0")).doc_ids(), &[FileId(0)]);
        assert!(set.postings(&t("nowhere")).is_empty());
        assert!(set.contains_term(&t("only1")));
        assert!(!set.contains_term(&t("nowhere")));
        assert_eq!(set.file_count(), 2);
    }

    #[test]
    fn index_set_term_postings_borrows_when_possible() {
        let mut r0 = InMemoryIndex::new();
        r0.insert_file(FileId(0), [t("shared"), t("only0")]);
        let mut r1 = InMemoryIndex::new();
        r1.insert_file(FileId(1), [t("shared"), t("only1")]);
        let set = IndexSet::new(vec![r0, r1]);

        // One borrowed list per replica that knows the term, nothing merged.
        let only0 = set.posting_lists(&t("only0"));
        assert_eq!(only0.len(), 1);
        assert!(std::ptr::eq(only0[0], set.replicas()[0].postings(&t("only0")).unwrap()));
        assert_eq!(set.posting_lists(&t("shared")).len(), 2);
        assert!(set.posting_lists(&t("nowhere")).is_empty());

        // The borrowed lists union to what the owned lookup returns.
        let mut merged = PostingList::new();
        set.posting_lists(&t("shared")).into_iter().for_each(|list| merged.union_with(list));
        assert_eq!(merged, set.postings(&t("shared")));
    }

    #[test]
    fn index_set_join_equals_direct_build() {
        let mut direct = InMemoryIndex::new();
        let mut r0 = InMemoryIndex::new();
        let mut r1 = InMemoryIndex::new();
        for i in 0..20u32 {
            let terms = [Term::from(format!("w{}", i % 5)), t("all")];
            direct.insert_file(FileId(i), terms.clone());
            if i % 2 == 0 {
                r0.insert_file(FileId(i), terms);
            } else {
                r1.insert_file(FileId(i), terms);
            }
        }
        let set = IndexSet::new(vec![r0, r1]);
        let joined = set.join();
        assert_eq!(joined, direct);
    }

    #[test]
    fn index_set_stats_are_upper_bounds() {
        let mut r0 = InMemoryIndex::new();
        r0.insert_file(FileId(0), [t("a"), t("b")]);
        let mut r1 = InMemoryIndex::new();
        r1.insert_file(FileId(1), [t("a")]);
        let set = IndexSet::new(vec![r0, r1]);
        let stats = set.stats();
        assert_eq!(stats.files, 2);
        assert_eq!(stats.postings, 3);
        assert_eq!(stats.distinct_terms, 3); // upper bound (a counted twice)
        assert_eq!(set.replicas().len(), 2);
        assert_eq!(set.into_replicas().len(), 2);
    }
}
