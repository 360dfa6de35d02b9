//! Per-file condensed word lists.
//!
//! Section 3 of the paper settles the duplicate-handling question by analysis:
//! each term extractor builds a *condensed word list without duplicates* for
//! the file it is scanning and hands the whole list to the index **en bloc**.
//! Because every file is scanned exactly once, the index never has to check
//! whether a `(term, filename)` pair already exists, and the number of
//! locking/buffering operations drops to one per file instead of one per term
//! occurrence.
//!
//! [`WordListBuilder`] implements exactly that: it accepts every occurrence of
//! every term and keeps only the first, using the FNV hash map from
//! [`crate::hashtable`].
//!
//! # Allocation contract
//!
//! A builder is meant to live as long as its extractor and be
//! [`reset`](WordListBuilder::reset) between files.  Its table remembers every
//! term it has ever seen, so it doubles as the extractor's term interner:
//! [`push_str`](WordListBuilder::push_str) allocates an `Arc<str>` only the
//! first time the *builder* meets a word; the first occurrence in a later file
//! costs a reference-count bump and repeat occurrences cost one hash lookup.
//! Per file the builder allocates the two vectors of the [`WordList`] it hands
//! out (plus their growth) and nothing else.  The table is never cleared, so
//! `reset` is O(1); its size is bounded by the vocabulary the index built from
//! these lists holds anyway — the index ends up sharing the very same
//! `Arc<str>`s.

use serde::{Deserialize, Serialize};

use crate::hashtable::FnvHashMap;
use crate::tokenizer::Term;

/// The de-duplicated terms of a single file, in first-occurrence order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WordList {
    terms: Vec<Term>,
    /// How many times each distinct term occurred (parallel to `terms`).
    /// Ranked retrieval records these at seal time as per-posting term
    /// frequencies.
    counts: Vec<u32>,
    /// Total occurrences observed before de-duplication (for statistics and
    /// the simulator's cost model).
    occurrences: u64,
}

impl WordList {
    /// The distinct terms, in the order they first appeared in the file.
    #[must_use]
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Number of distinct terms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` when the file contained no indexable terms.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Total term occurrences seen before de-duplication.
    #[must_use]
    pub fn occurrences(&self) -> u64 {
        self.occurrences
    }

    /// Per-term occurrence counts, parallel to [`terms`](WordList::terms).
    #[must_use]
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Iterates over `(term, occurrence count)` pairs in first-occurrence
    /// order.
    pub fn iter_counted(&self) -> impl Iterator<Item = (&Term, u32)> {
        self.terms.iter().zip(self.counts.iter().copied())
    }

    /// Iterates over the distinct terms.
    pub fn iter(&self) -> std::slice::Iter<'_, Term> {
        self.terms.iter()
    }

    /// Consumes the list, returning the distinct terms.
    #[must_use]
    pub fn into_terms(self) -> Vec<Term> {
        self.terms
    }

    /// Consumes the list, returning the distinct terms and their parallel
    /// occurrence counts without copying either.
    #[must_use]
    pub fn into_parts(self) -> (Vec<Term>, Vec<u32>) {
        (self.terms, self.counts)
    }

    /// Builds a word list directly from a term iterator.
    pub fn from_terms<I: IntoIterator<Item = Term>>(terms: I) -> Self {
        let mut b = WordListBuilder::new();
        for t in terms {
            b.push(t);
        }
        b.finish()
    }
}

impl IntoIterator for WordList {
    type Item = Term;
    type IntoIter = std::vec::IntoIter<Term>;

    fn into_iter(self) -> Self::IntoIter {
        self.terms.into_iter()
    }
}

impl<'a> IntoIterator for &'a WordList {
    type Item = &'a Term;
    type IntoIter = std::slice::Iter<'a, Term>;

    fn into_iter(self) -> Self::IntoIter {
        self.terms.iter()
    }
}

/// Incrementally builds a [`WordList`] while a file is being scanned.
///
/// # Example
///
/// ```
/// use dsearch_text::wordlist::WordListBuilder;
/// use dsearch_text::tokenizer::Term;
///
/// let mut b = WordListBuilder::new();
/// b.push(Term::from("fox"));
/// b.push(Term::from("fox"));
/// b.push(Term::from("dog"));
/// let list = b.finish();
/// assert_eq!(list.len(), 2);
/// assert_eq!(list.occurrences(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WordListBuilder {
    /// Every term this builder has ever been given, with where it sits in the
    /// file being scanned.  Kept across [`reset`](WordListBuilder::reset) so
    /// the keys intern the vocabulary.
    seen: FnvHashMap<Term, Seen>,
    /// Stamp of the file being scanned; a `seen` entry is current only when
    /// it carries this stamp, which is what makes `reset` O(1).
    file: u32,
    terms: Vec<Term>,
    counts: Vec<u32>,
    occurrences: u64,
}

/// Where a term sits in the current file's list.
#[derive(Debug, Clone, Copy)]
struct Seen {
    file: u32,
    index: u32,
}

impl WordListBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder sized for roughly `expected_terms` distinct terms.
    #[must_use]
    pub fn with_capacity(expected_terms: usize) -> Self {
        WordListBuilder {
            seen: FnvHashMap::with_capacity(expected_terms),
            file: 0,
            terms: Vec::with_capacity(expected_terms),
            counts: Vec::with_capacity(expected_terms),
            occurrences: 0,
        }
    }

    /// Records one occurrence of `term`; the first occurrence adds the term,
    /// repeats bump its count. Returns `true` when the term was new for this
    /// file.
    pub fn push(&mut self, term: Term) -> bool {
        self.record(term.as_str(), || term.clone())
    }

    /// Like [`push`](WordListBuilder::push) for a borrowed token: a [`Term`]
    /// is allocated only when this builder has never seen the word, in this
    /// file or an earlier one.
    pub fn push_str(&mut self, term: &str) -> bool {
        self.record(term, || Term::from(term))
    }

    fn record(&mut self, text: &str, intern: impl FnOnce() -> Term) -> bool {
        self.occurrences += 1;
        let here =
            Seen { file: self.file, index: u32::try_from(self.terms.len()).unwrap_or(u32::MAX) };
        let term = match self.seen.get_key_value_mut(text) {
            Some((_, seen)) if seen.file == self.file => {
                let count = &mut self.counts[seen.index as usize];
                *count = count.saturating_add(1);
                return false;
            }
            Some((term, seen)) => {
                *seen = here;
                term.clone()
            }
            None => {
                let term = intern();
                self.seen.insert(term.clone(), here);
                term
            }
        };
        self.terms.push(term);
        self.counts.push(1);
        true
    }

    /// Total occurrences pushed so far.
    #[must_use]
    pub fn occurrences(&self) -> u64 {
        self.occurrences
    }

    /// Finishes the file, producing the condensed word list.
    #[must_use]
    pub fn finish(self) -> WordList {
        WordList { terms: self.terms, counts: self.counts, occurrences: self.occurrences }
    }

    /// Hands out the current file's word list and readies the builder for
    /// the next file, keeping the interned vocabulary.
    pub fn reset(&mut self) -> WordList {
        let list = WordList {
            terms: std::mem::take(&mut self.terms),
            counts: std::mem::take(&mut self.counts),
            occurrences: self.occurrences,
        };
        self.occurrences = 0;
        match self.file.checked_add(1) {
            Some(next) => self.file = next,
            // Stamps are about to repeat: forget them all and start over.
            None => {
                self.seen.clear();
                self.file = 0;
            }
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keeps_first_occurrence_order() {
        let list = WordList::from_terms(["b", "a", "b", "c", "a"].map(Term::from));
        let words: Vec<&str> = list.terms().iter().map(|t| t.as_str()).collect();
        assert_eq!(words, ["b", "a", "c"]);
        assert_eq!(list.counts(), [2, 2, 1]);
        assert_eq!(list.occurrences(), 5);
    }

    #[test]
    fn counted_accessors_agree() {
        let list = WordList::from_terms(["x", "y", "x", "x"].map(Term::from));
        let pairs: Vec<(&str, u32)> = list.iter_counted().map(|(t, c)| (t.as_str(), c)).collect();
        assert_eq!(pairs, [("x", 3), ("y", 1)]);
        let (terms, counts) = list.into_parts();
        assert_eq!(terms.len(), 2);
        assert_eq!(counts[0], 3);
    }

    #[test]
    fn empty_list() {
        let list = WordList::from_terms(std::iter::empty());
        assert!(list.is_empty());
        assert_eq!(list.len(), 0);
        assert_eq!(list.occurrences(), 0);
    }

    #[test]
    fn push_reports_novelty() {
        let mut b = WordListBuilder::new();
        assert!(b.push(Term::from("x")));
        assert!(!b.push(Term::from("x")));
        assert!(b.push(Term::from("y")));
        assert_eq!(b.occurrences(), 3);
        assert_eq!(b.finish().len(), 2);
    }

    #[test]
    fn reset_reuses_builder() {
        let mut b = WordListBuilder::with_capacity(8);
        b.push(Term::from("one"));
        b.push(Term::from("one"));
        let first = b.reset();
        assert_eq!(first.len(), 1);
        assert_eq!(first.counts(), [2]);
        assert_eq!(first.occurrences(), 2);

        b.push(Term::from("two"));
        let second = b.reset();
        assert_eq!(second.len(), 1);
        assert_eq!(second.terms()[0].as_str(), "two");
        assert_eq!(second.occurrences(), 1);
    }

    #[test]
    fn push_str_matches_push_and_interns_across_files() {
        let mut b = WordListBuilder::new();
        assert!(b.push_str("fox"));
        assert!(!b.push_str("fox"));
        assert!(b.push(Term::from("dog")));
        assert!(!b.push_str("dog"));
        let first = b.reset();
        assert_eq!(first, WordList::from_terms(["fox", "fox", "dog", "dog"].map(Term::from)));
        let (terms, counts) = first.into_parts();
        assert_eq!(counts, [2, 2]);

        // A later file starts clean but reuses the first file's strings.
        assert!(b.push_str("dog"));
        assert!(b.push_str("cat"));
        let second = b.reset();
        assert_eq!(second, WordList::from_terms(["dog", "cat"].map(Term::from)));
        let dog = &second.terms()[0];
        assert!(dog.shared_count() >= 3, "builder key + both lists share one allocation");
        assert_eq!(terms[1].as_str().as_ptr(), dog.as_str().as_ptr());
    }

    #[test]
    fn stamp_wraparound_forgets_stale_entries() {
        let mut b = WordListBuilder::new();
        b.push_str("old");
        b.file = u32::MAX;
        b.push_str("edge");
        assert_eq!(b.reset().len(), 2);
        assert_eq!(b.file, 0);
        // "old" carried stamp 0; it must not read as already seen in the
        // file that reuses stamp 0.
        assert!(b.push_str("old"));
        assert_eq!(b.reset().counts(), [1]);
    }

    #[test]
    fn iteration_forms() {
        let list = WordList::from_terms(["a", "b"].map(Term::from));
        let by_ref: Vec<&Term> = (&list).into_iter().collect();
        assert_eq!(by_ref.len(), 2);
        let owned: Vec<Term> = list.clone().into_iter().collect();
        assert_eq!(owned.len(), 2);
        assert_eq!(list.iter().count(), 2);
        assert_eq!(list.into_terms().len(), 2);
    }

    proptest! {
        /// The condensed list contains each distinct term exactly once and
        /// occurrences equals the input length.
        #[test]
        fn dedup_invariants(words in proptest::collection::vec("[a-z]{1,6}", 0..300)) {
            let list = WordList::from_terms(words.iter().map(|w| Term::from(w.as_str())));
            prop_assert_eq!(list.occurrences(), words.len() as u64);

            let mut expected: Vec<&str> = words.iter().map(String::as_str).collect();
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(list.len(), expected.len());

            // No duplicates in the output.
            let mut seen = std::collections::HashSet::new();
            for t in list.terms() {
                prop_assert!(seen.insert(t.as_str().to_owned()));
            }

            // Counts are parallel to terms and sum back to total occurrences.
            prop_assert_eq!(list.counts().len(), list.len());
            let total: u64 = list.counts().iter().map(|&c| u64::from(c)).sum();
            prop_assert_eq!(total, list.occurrences());
        }
    }
}
