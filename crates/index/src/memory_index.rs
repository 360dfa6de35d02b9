//! The single-threaded in-memory inverted index.
//!
//! [`InMemoryIndex`] is the structure every implementation ultimately builds:
//! an FNV hash map from [`Term`] to [`PostingList`].  Implementation 1 wraps
//! it in a lock ([`crate::SharedIndex`]); Implementations 2 and 3 give each
//! extractor thread a private one ("replica") and either join them
//! ([`crate::join`]) or search them together ([`crate::IndexSet`]).
//!
//! The update path follows the paper's design: terms arrive **en bloc** as the
//! de-duplicated word list of one file ([`InMemoryIndex::insert_file`]), so no
//! `(term, filename)` duplicate check is ever needed.

use dsearch_text::hashtable::FnvHashMap;
use dsearch_text::tokenizer::Term;

use crate::doc_table::FileId;
use crate::posting::PostingList;
use crate::stats::IndexStats;

/// An in-memory inverted index: term → posting list.
#[derive(Debug, Clone, Default)]
pub struct InMemoryIndex {
    terms: FnvHashMap<Term, PostingList>,
    files_indexed: u64,
    postings: u64,
    /// Total term occurrences per file (the BM25 document length).  Files
    /// inserted through the uncounted path get their distinct-term count,
    /// which is exact when every frequency is 1.
    doc_lens: std::collections::HashMap<FileId, u32>,
}

impl InMemoryIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        InMemoryIndex::default()
    }

    /// Creates an empty index pre-sized for roughly `expected_terms` distinct
    /// terms.
    #[must_use]
    pub fn with_capacity(expected_terms: usize) -> Self {
        InMemoryIndex {
            terms: FnvHashMap::with_capacity(expected_terms),
            files_indexed: 0,
            postings: 0,
            doc_lens: std::collections::HashMap::new(),
        }
    }

    /// Inserts the terms of one file, one occurrence each.
    ///
    /// This is the en-bloc update of the paper: one call per file, no
    /// duplicate checking inside the index.  Extractors that track occurrence
    /// counts should use [`InMemoryIndex::insert_file_counted`] instead.
    pub fn insert_file<I>(&mut self, file: FileId, terms: I)
    where
        I: IntoIterator<Item = Term>,
    {
        self.insert_file_counted(file, terms.into_iter().map(|t| (t, 1)));
    }

    /// Inserts the terms of one file together with their per-file occurrence
    /// counts, recording the document length (total occurrences) for ranked
    /// retrieval — also for a file without terms.
    ///
    /// An occurrence is an occurrence: a term listed again adds to the
    /// frequency already stored for `(term, file)`, so the index comes out
    /// the same whether a file's occurrences arrive condensed or one by one.
    pub fn insert_file_counted<I>(&mut self, file: FileId, terms: I)
    where
        I: IntoIterator<Item = (Term, u32)>,
    {
        let mut doc_len: u64 = 0;
        for (term, tf) in terms {
            let tf = tf.max(1);
            doc_len += u64::from(tf);
            let list = self.terms.entry_or_default(term);
            if list.add_occurrences(file, tf) {
                self.postings += 1;
            }
        }
        let len = self.doc_lens.entry(file).or_insert(0);
        *len = len.saturating_add(u32::try_from(doc_len).unwrap_or(u32::MAX));
        self.files_indexed += 1;
    }

    /// Inserts `count` occurrences of `term` in `file` — the per-term update
    /// path over a condensed word list.  The file itself is accounted apart:
    /// by an [`InMemoryIndex::insert_file_counted`] without terms, which also
    /// records a length for a file that turns out to have none, or by
    /// [`InMemoryIndex::note_file_done`], which does not.
    pub fn insert_occurrences(&mut self, file: FileId, term: Term, count: u32) {
        let count = count.max(1);
        let list = self.terms.entry_or_default(term);
        if list.add_occurrences(file, count) {
            self.postings += 1;
        }
        let len = self.doc_lens.entry(file).or_insert(0);
        *len = len.saturating_add(count);
    }

    /// Records (or restores) the document length of `file` directly — the
    /// segment-load path uses this to rebuild lengths persisted in v3
    /// segments.
    pub fn note_doc_len(&mut self, file: FileId, len: u32) {
        self.doc_lens.insert(file, len);
    }

    /// The recorded document length (total term occurrences) of `file`.
    #[must_use]
    pub fn doc_len(&self, file: FileId) -> Option<u32> {
        self.doc_lens.get(&file).copied()
    }

    /// Iterates over `(file, document length)` pairs in unspecified order.
    pub fn doc_lens(&self) -> impl Iterator<Item = (FileId, u32)> + '_ {
        self.doc_lens.iter().map(|(&f, &l)| (f, l))
    }

    /// Sum of all recorded document lengths (for average-length scoring
    /// statistics).
    #[must_use]
    pub fn total_doc_len(&self) -> u64 {
        self.doc_lens.values().map(|&l| u64::from(l)).sum()
    }

    /// Counts one more file without recording a length for it — the segment
    /// loader restores a segment's file count this way, next to the lengths
    /// it restores through [`InMemoryIndex::note_doc_len`].
    pub fn note_file_done(&mut self) {
        self.files_indexed += 1;
    }

    /// Inserts one term's complete posting list in bulk, unioning with any
    /// existing list for the term.
    ///
    /// This is the reconstruction path for segment loading and snapshot
    /// restore: one map operation and one merge per term, instead of the
    /// per-id `add` loop those paths used to run (which degrades to O(n²)
    /// element shifts when ids arrive out of order).  The file counter is
    /// not touched; callers restore it via [`InMemoryIndex::note_file_done`].
    pub fn insert_term_list(&mut self, term: Term, list: PostingList) {
        if list.is_empty() {
            return;
        }
        if let Some(mine) = self.terms.get_mut(term.as_str()) {
            let before = mine.len();
            mine.union_with(&list);
            self.postings += (mine.len() - before) as u64;
        } else {
            self.postings += list.len() as u64;
            self.terms.insert(term, list);
        }
    }

    /// The posting list for `term`, if the term occurs anywhere.
    #[must_use]
    pub fn postings(&self, term: &Term) -> Option<&PostingList> {
        self.terms.get(term.as_str())
    }

    /// Returns `true` when `term` occurs in at least one file.
    #[must_use]
    pub fn contains_term(&self, term: &Term) -> bool {
        self.terms.contains_key(term.as_str())
    }

    /// Number of distinct terms.
    #[must_use]
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Number of `(term, file)` postings.
    #[must_use]
    pub fn posting_count(&self) -> u64 {
        self.postings
    }

    /// Number of files inserted.
    #[must_use]
    pub fn file_count(&self) -> u64 {
        self.files_indexed
    }

    /// Returns `true` when nothing has been indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(term, posting list)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Term, &PostingList)> {
        self.terms.iter()
    }

    /// Merges `other` into `self` (used by the join stage).
    pub fn merge_from(&mut self, other: &InMemoryIndex) {
        for (term, list) in other.iter() {
            let mine = self.terms.entry_or_default(term.clone());
            let before = mine.len();
            mine.union_with(list);
            self.postings += (mine.len() - before) as u64;
        }
        for (&file, &len) in &other.doc_lens {
            let mine = self.doc_lens.entry(file).or_insert(0);
            *mine = (*mine).max(len);
        }
        self.files_indexed += other.files_indexed;
    }

    /// Consumes `other` and merges it into `self`, reusing `other`'s posting
    /// lists where possible.
    pub fn absorb(&mut self, other: InMemoryIndex) {
        for (file, len) in other.doc_lens {
            let mine = self.doc_lens.entry(file).or_insert(0);
            *mine = (*mine).max(len);
        }
        for (term, list) in other.terms.into_iter_pairs() {
            if let Some(mine) = self.terms.get_mut(term.as_str()) {
                let before = mine.len();
                mine.union_with(&list);
                self.postings += (mine.len() - before) as u64;
            } else {
                self.postings += list.len() as u64;
                self.terms.insert(term, list);
            }
        }
        self.files_indexed += other.files_indexed;
    }

    /// Removes every posting of every file in `files` from the index, in
    /// one pass: each posting list is filtered once however many files go.
    ///
    /// Returns the number of postings removed.  Terms whose posting list
    /// becomes empty are dropped entirely, and the file counter drops by the
    /// files that had a recorded length.  Used by the incremental update
    /// for the files that were deleted or modified.
    pub fn remove_files(&mut self, files: &[FileId]) -> u64 {
        let mut files = files.to_vec();
        files.sort_unstable();
        files.dedup();
        let mut removed = 0u64;
        let mut emptied: Vec<Term> = Vec::new();
        for (term, list) in self.terms.iter_mut() {
            removed += list.remove_all(&files) as u64;
            if list.is_empty() {
                emptied.push(term.clone());
            }
        }
        for term in emptied {
            self.terms.remove(term.as_str());
        }
        self.postings -= removed;
        let known = files.iter().filter(|file| self.doc_lens.remove(file).is_some()).count();
        self.files_indexed = self.files_indexed.saturating_sub(known as u64);
        removed
    }

    /// Bytes of heap behind the index: the term table and every posting
    /// stream, slack included.  The term strings are shared with the
    /// extractor that interned them and are not counted.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.terms.heap_bytes() + self.terms.values().map(PostingList::heap_bytes).sum::<usize>()
    }

    /// Summary statistics for reports and tests.
    #[must_use]
    pub fn stats(&self) -> IndexStats {
        let mut longest = 0usize;
        for (_, list) in self.iter() {
            longest = longest.max(list.len());
        }
        IndexStats {
            distinct_terms: self.term_count() as u64,
            postings: self.postings,
            files: self.files_indexed,
            longest_posting_list: longest as u64,
        }
    }

    /// Collects the index into a sorted `(term, ids)` list, for comparisons in
    /// tests and serialization.
    #[must_use]
    pub fn to_sorted_entries(&self) -> Vec<(Term, Vec<FileId>)> {
        let mut entries: Vec<(Term, Vec<FileId>)> =
            self.iter().map(|(t, p)| (t.clone(), p.doc_ids())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }
}

impl PartialEq for InMemoryIndex {
    /// Two indices are equal when they map the same terms to the same file
    /// sets (bookkeeping counters other than the posting structure are not
    /// compared; `files_indexed` differs legitimately between a joined index
    /// and a sequentially built one only if files were empty).
    fn eq(&self, other: &Self) -> bool {
        self.to_sorted_entries() == other.to_sorted_entries()
    }
}

impl Eq for InMemoryIndex {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: &str) -> Term {
        Term::from(s)
    }

    #[test]
    fn insert_file_builds_postings() {
        let mut idx = InMemoryIndex::new();
        idx.insert_file(FileId(0), [t("alpha"), t("beta")]);
        idx.insert_file(FileId(1), [t("beta"), t("gamma")]);

        assert_eq!(idx.term_count(), 3);
        assert_eq!(idx.posting_count(), 4);
        assert_eq!(idx.file_count(), 2);
        assert_eq!(idx.postings(&t("beta")).unwrap().doc_ids(), &[FileId(0), FileId(1)]);
        assert_eq!(idx.postings(&t("alpha")).unwrap().doc_ids(), &[FileId(0)]);
        assert!(idx.postings(&t("delta")).is_none());
        assert!(idx.contains_term(&t("gamma")));
        assert!(!idx.is_empty());
    }

    #[test]
    fn counted_insert_records_tfs_and_doc_lens() {
        let mut idx = InMemoryIndex::new();
        idx.insert_file_counted(FileId(0), [(t("alpha"), 3), (t("beta"), 1)]);
        idx.insert_file(FileId(1), [t("beta")]);

        assert_eq!(idx.postings(&t("alpha")).unwrap().tf_of(FileId(0)), Some(3));
        assert_eq!(idx.postings(&t("beta")).unwrap().tf_of(FileId(0)), Some(1));
        assert_eq!(idx.postings(&t("beta")).unwrap().tf_of(FileId(1)), Some(1));
        assert_eq!(idx.doc_len(FileId(0)), Some(4));
        assert_eq!(idx.doc_len(FileId(1)), Some(1));
        assert_eq!(idx.total_doc_len(), 5);
        assert_eq!(idx.doc_lens().count(), 2);

        idx.remove_files(&[FileId(0)]);
        assert_eq!(idx.doc_len(FileId(0)), None);
        assert_eq!(idx.total_doc_len(), 1);
    }

    #[test]
    fn merge_carries_doc_lens_and_tfs() {
        let mut a = InMemoryIndex::new();
        a.insert_file_counted(FileId(0), [(t("x"), 5)]);
        let mut b = InMemoryIndex::new();
        b.insert_file_counted(FileId(1), [(t("x"), 2), (t("y"), 1)]);

        let mut merged = a.clone();
        merged.merge_from(&b);
        assert_eq!(merged.doc_len(FileId(0)), Some(5));
        assert_eq!(merged.doc_len(FileId(1)), Some(3));
        assert_eq!(merged.postings(&t("x")).unwrap().tf_of(FileId(0)), Some(5));
        assert_eq!(merged.postings(&t("x")).unwrap().tf_of(FileId(1)), Some(2));

        a.absorb(b);
        assert_eq!(a.doc_len(FileId(1)), Some(3));
        assert_eq!(a.postings(&t("x")).unwrap().tf_of(FileId(1)), Some(2));
    }

    #[test]
    fn per_occurrence_path_tolerates_duplicates() {
        let mut idx = InMemoryIndex::new();
        idx.insert_occurrences(FileId(3), t("dup"), 1);
        idx.insert_occurrences(FileId(3), t("dup"), 1);
        idx.insert_occurrences(FileId(4), t("dup"), 1);
        idx.note_file_done();
        idx.note_file_done();
        assert_eq!(idx.posting_count(), 2);
        assert_eq!(idx.file_count(), 2);
        assert_eq!(idx.postings(&t("dup")).unwrap().len(), 2);
        // A repeat is one more occurrence of the same posting.
        assert_eq!(idx.postings(&t("dup")).unwrap().tf_of(FileId(3)), Some(2));
        assert_eq!((idx.doc_len(FileId(3)), idx.doc_len(FileId(4))), (Some(2), Some(1)));
    }

    #[test]
    fn occurrences_build_the_index_of_the_condensed_list() {
        // The same file as a condensed word list, as raw occurrences en bloc,
        // per term with counts and one occurrence at a time: one index,
        // frequencies and lengths included.
        let raw = ["b", "a", "b", "c", "b", "a"];
        let mut condensed = InMemoryIndex::new();
        condensed.insert_file_counted(FileId(7), [(t("b"), 3), (t("a"), 2), (t("c"), 1)]);
        let mut en_bloc = InMemoryIndex::new();
        en_bloc.insert_file(FileId(7), raw.map(t));
        let mut per_term = InMemoryIndex::new();
        per_term.insert_file(FileId(7), []);
        for (term, count) in [("b", 3), ("a", 2), ("c", 1)] {
            per_term.insert_occurrences(FileId(7), t(term), count);
        }
        let mut per_occurrence = InMemoryIndex::new();
        for term in raw.map(t) {
            per_occurrence.insert_occurrences(FileId(7), term, 1);
        }
        per_occurrence.note_file_done();
        for other in [&en_bloc, &per_term, &per_occurrence] {
            assert_eq!(other.posting_count(), 3);
            assert_eq!(other.file_count(), 1);
            assert_eq!(other.doc_len(FileId(7)), Some(6));
            for (term, list) in condensed.iter() {
                assert_eq!(other.postings(term), Some(list), "{term:?}");
            }
        }
    }

    #[test]
    fn merge_from_unions_postings() {
        let mut a = InMemoryIndex::new();
        a.insert_file(FileId(0), [t("x"), t("y")]);
        let mut b = InMemoryIndex::new();
        b.insert_file(FileId(1), [t("y"), t("z")]);

        a.merge_from(&b);
        assert_eq!(a.term_count(), 3);
        assert_eq!(a.posting_count(), 4);
        assert_eq!(a.file_count(), 2);
        assert_eq!(a.postings(&t("y")).unwrap().doc_ids(), &[FileId(0), FileId(1)]);
    }

    #[test]
    fn absorb_equals_merge_from() {
        let mut a1 = InMemoryIndex::new();
        a1.insert_file(FileId(0), [t("x"), t("y")]);
        let mut a2 = a1.clone();

        let mut b = InMemoryIndex::new();
        b.insert_file(FileId(1), [t("y"), t("z")]);
        b.insert_file(FileId(2), [t("x")]);

        a1.merge_from(&b);
        a2.absorb(b);
        assert_eq!(a1, a2);
        assert_eq!(a1.posting_count(), a2.posting_count());
    }

    #[test]
    fn remove_file_drops_postings_and_empty_terms() {
        let mut idx = InMemoryIndex::new();
        idx.insert_file(FileId(0), [t("shared"), t("only0")]);
        idx.insert_file(FileId(1), [t("shared"), t("only1")]);
        assert_eq!(idx.posting_count(), 4);

        let removed = idx.remove_files(&[FileId(0)]);
        assert_eq!(removed, 2);
        assert_eq!(idx.posting_count(), 2);
        assert_eq!(idx.file_count(), 1);
        assert!(!idx.contains_term(&t("only0")), "empty posting lists are dropped");
        assert_eq!(idx.postings(&t("shared")).unwrap().doc_ids(), &[FileId(1)]);

        // Removing a file with no postings is a no-op.
        assert_eq!(idx.remove_files(&[FileId(7)]), 0);
        assert_eq!(idx.file_count(), 1);
    }

    #[test]
    fn remove_files_takes_any_number_of_files_in_one_pass() {
        let mut idx = InMemoryIndex::new();
        for file in 0..6u32 {
            idx.insert_file_counted(
                FileId(file),
                [(t("shared"), file + 1), (Term::from(format!("only{file}")), 1)],
            );
        }
        // Unsorted, repeated and unknown ids are all fine.
        assert_eq!(idx.remove_files(&[FileId(4), FileId(1), FileId(9), FileId(4), FileId(0)]), 6);
        assert_eq!((idx.posting_count(), idx.file_count(), idx.term_count()), (6, 3, 4));
        let shared: Vec<_> = idx.postings(&t("shared")).unwrap().iter_counted().collect();
        assert_eq!(shared, [(FileId(2), 3), (FileId(3), 4), (FileId(5), 6)]);
        assert_eq!(idx.doc_lens().count(), 3);
        assert_eq!(idx.remove_files(&[]), 0);
    }

    #[test]
    fn heap_bytes_counts_the_table_and_the_streams() {
        let mut idx = InMemoryIndex::new();
        let empty = idx.heap_bytes();
        assert!(empty > 0, "the table is allocated up front");
        for file in 0..1000u32 {
            idx.insert_file(FileId(file), [t("everywhere")]);
        }
        let grown = idx.heap_bytes() - empty;
        assert!((2000..4096).contains(&grown), "two bytes a posting plus slack, got {grown}");
    }

    #[test]
    fn remove_then_reinsert_matches_fresh_index() {
        let mut idx = InMemoryIndex::new();
        idx.insert_file(FileId(0), [t("a"), t("b")]);
        idx.insert_file(FileId(1), [t("b"), t("c")]);
        idx.remove_files(&[FileId(1)]);
        idx.insert_file(FileId(1), [t("c"), t("d")]);

        let mut fresh = InMemoryIndex::new();
        fresh.insert_file(FileId(0), [t("a"), t("b")]);
        fresh.insert_file(FileId(1), [t("c"), t("d")]);
        assert_eq!(idx, fresh);
        assert_eq!(idx.posting_count(), fresh.posting_count());
    }

    #[test]
    fn stats_report_shape() {
        let mut idx = InMemoryIndex::new();
        idx.insert_file(FileId(0), [t("common"), t("rare1")]);
        idx.insert_file(FileId(1), [t("common"), t("rare2")]);
        idx.insert_file(FileId(2), [t("common")]);
        let s = idx.stats();
        assert_eq!(s.distinct_terms, 3);
        assert_eq!(s.postings, 5);
        assert_eq!(s.files, 3);
        assert_eq!(s.longest_posting_list, 3);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut a = InMemoryIndex::new();
        a.insert_file(FileId(0), [t("p"), t("q")]);
        a.insert_file(FileId(1), [t("q")]);

        let mut b = InMemoryIndex::new();
        b.insert_file(FileId(1), [t("q")]);
        b.insert_file(FileId(0), [t("q"), t("p")]);

        assert_eq!(a, b);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a = InMemoryIndex::with_capacity(1000);
        let mut b = InMemoryIndex::new();
        for i in 0..50u32 {
            a.insert_file(FileId(i), [t("w"), Term::from(format!("t{i}"))]);
            b.insert_file(FileId(i), [t("w"), Term::from(format!("t{i}"))]);
        }
        assert_eq!(a, b);
    }

    proptest! {
        /// Splitting a stream of (file, terms) insertions across two indices
        /// and merging them equals inserting everything into one index.
        #[test]
        fn merge_is_equivalent_to_sequential(
            docs in proptest::collection::vec(
                (0u32..64, proptest::collection::vec("[a-e]{1,3}", 1..8)),
                1..40,
            )
        ) {
            let mut sequential = InMemoryIndex::new();
            let mut left = InMemoryIndex::new();
            let mut right = InMemoryIndex::new();
            for (i, (file, words)) in docs.iter().enumerate() {
                // De-duplicate per file, as the extractor would.
                let mut uniq: Vec<&String> = words.iter().collect();
                uniq.sort();
                uniq.dedup();
                let terms: Vec<Term> = uniq.iter().map(|w| Term::from(w.as_str())).collect();
                sequential.insert_file(FileId(*file), terms.clone());
                if i % 2 == 0 {
                    left.insert_file(FileId(*file), terms);
                } else {
                    right.insert_file(FileId(*file), terms);
                }
            }
            let mut joined = left.clone();
            joined.merge_from(&right);
            prop_assert_eq!(&joined, &sequential);

            let mut absorbed = left;
            absorbed.absorb(right);
            prop_assert_eq!(&absorbed, &sequential);
        }

        /// posting_count always equals the sum of posting-list lengths.
        #[test]
        fn posting_count_is_consistent(
            docs in proptest::collection::vec(
                (0u32..32, proptest::collection::vec("[a-d]{1,2}", 1..6)),
                0..30,
            )
        ) {
            let mut idx = InMemoryIndex::new();
            for (file, words) in &docs {
                let mut uniq = words.clone();
                uniq.sort();
                uniq.dedup();
                idx.insert_file(FileId(*file), uniq.iter().map(|w| Term::from(w.as_str())));
            }
            let total: u64 = idx.iter().map(|(_, p)| p.len() as u64).sum();
            prop_assert_eq!(idx.posting_count(), total);
        }
    }
}
