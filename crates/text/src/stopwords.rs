//! Stop-word filtering.
//!
//! Desktop-search engines commonly drop very frequent function words before
//! indexing.  The paper's generator indexes everything, so the default
//! configuration here is an *empty* stop list; the filter is here for callers
//! that want one.

use crate::hashtable::FnvHashSet;
use crate::tokenizer::Term;

/// The classic short English stop-word list.
pub const ENGLISH_STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if", "in", "into", "is", "it",
    "no", "not", "of", "on", "or", "such", "that", "the", "their", "then", "there", "these",
    "they", "this", "to", "was", "will", "with",
];

/// A set of terms to exclude from indexing or querying.
#[derive(Debug, Clone, Default)]
pub struct StopWords {
    words: FnvHashSet<String>,
}

impl StopWords {
    /// Creates an empty stop list (the paper's configuration).
    #[must_use]
    pub fn none() -> Self {
        StopWords::default()
    }

    /// Creates the standard short English stop list.
    #[must_use]
    pub fn english() -> Self {
        Self::from_words(ENGLISH_STOPWORDS.iter().copied())
    }

    /// Builds a stop list from an iterator of words.
    pub fn from_words<'a>(words: impl IntoIterator<Item = &'a str>) -> Self {
        StopWords { words: words.into_iter().map(|w| w.to_ascii_lowercase()).collect() }
    }

    /// Number of stop words in the list.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` when the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Returns `true` when `term` should be dropped.
    #[must_use]
    pub fn is_stop(&self, term: &Term) -> bool {
        self.words.contains(term.as_str())
    }

    /// Filters a term list in place, removing stop words.
    pub fn filter(&self, terms: &mut Vec<Term>) {
        if self.words.is_empty() {
            return;
        }
        terms.retain(|t| !self.is_stop(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_list_filters_nothing() {
        let sw = StopWords::none();
        let mut terms = vec![Term::from("the"), Term::from("fox")];
        sw.filter(&mut terms);
        assert_eq!(terms.len(), 2);
        assert!(sw.is_empty());
    }

    #[test]
    fn english_list_drops_function_words() {
        let sw = StopWords::english();
        assert!(sw.is_stop(&Term::from("the")));
        assert!(sw.is_stop(&Term::from("and")));
        assert!(!sw.is_stop(&Term::from("fox")));
        assert_eq!(sw.len(), ENGLISH_STOPWORDS.len());
    }

    #[test]
    fn filter_removes_only_stop_words() {
        let sw = StopWords::english();
        let mut terms =
            vec![Term::from("the"), Term::from("quick"), Term::from("and"), Term::from("brown")];
        sw.filter(&mut terms);
        let words: Vec<&str> = terms.iter().map(|t| t.as_str()).collect();
        assert_eq!(words, ["quick", "brown"]);
    }

    #[test]
    fn custom_list_is_lowercased() {
        let sw = StopWords::from_words(["FOO", "Bar"]);
        assert!(sw.is_stop(&Term::from("foo")));
        assert!(sw.is_stop(&Term::from("bar")));
        assert_eq!(sw.len(), 2);
    }
}
