//! Term normalisation.
//!
//! The tokenizer already lowercases; this module hosts the richer
//! normalisation used by the query layer so that queries and indexed terms go
//! through the same canonicalisation: case folding, trimming of non-term
//! characters, optional digit stripping and length clamping.

use serde::{Deserialize, Serialize};

use crate::tokenizer::Term;

/// Options for [`Normalizer`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NormalizeOptions {
    /// Lowercase the term.
    pub lowercase: bool,
    /// Strip leading/trailing non-alphanumeric bytes.
    pub trim_punctuation: bool,
    /// Drop digits entirely.
    pub strip_digits: bool,
    /// Maximum length in bytes; longer terms are truncated.
    pub max_len: usize,
}

impl Default for NormalizeOptions {
    fn default() -> Self {
        NormalizeOptions {
            lowercase: true,
            trim_punctuation: true,
            strip_digits: false,
            max_len: 64,
        }
    }
}

/// Canonicalises raw query strings into [`Term`]s comparable with indexed
/// terms.
///
/// # Example
///
/// ```
/// use dsearch_text::normalize::Normalizer;
///
/// let n = Normalizer::default();
/// assert_eq!(n.normalize("  Hello!  ").unwrap().as_str(), "hello");
/// assert!(n.normalize("!!!").is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Normalizer {
    options: NormalizeOptions,
}

impl Normalizer {
    /// Creates a normalizer with the given options.
    #[must_use]
    pub fn new(options: NormalizeOptions) -> Self {
        Normalizer { options }
    }

    /// The options this normalizer was built with.
    #[must_use]
    pub fn options(&self) -> &NormalizeOptions {
        &self.options
    }

    /// Normalises a raw string into a term, or `None` when nothing indexable
    /// remains.  A word the folding leaves as it is (ASCII, and lowercase and
    /// digit-free where those are asked for) is not copied on the way: the
    /// term is the one allocation.
    #[must_use]
    pub fn normalize(&self, raw: &str) -> Option<Term> {
        let folds = |b: u8| {
            (self.options.lowercase && b.is_ascii_uppercase())
                || (self.options.strip_digits && b.is_ascii_digit())
        };
        let folded: String;
        let s = if raw.is_ascii() && !raw.bytes().any(folds) {
            raw
        } else {
            let mut s: String = raw.chars().filter(char::is_ascii).collect();
            if self.options.lowercase {
                s.make_ascii_lowercase();
            }
            if self.options.strip_digits {
                s.retain(|c| !c.is_ascii_digit());
            }
            folded = s;
            &folded
        };
        let trimmed: &str = if self.options.trim_punctuation {
            s.trim_matches(|c: char| !c.is_ascii_alphanumeric())
        } else {
            s.trim()
        };
        if trimmed.is_empty() {
            return None;
        }
        Some(Term::from(&trimmed[..trimmed.len().min(self.options.max_len)]))
    }

    /// Normalises a whitespace-separated list of raw words, dropping the ones
    /// that normalise to nothing.
    #[must_use]
    pub fn normalize_all(&self, raw: &str) -> Vec<Term> {
        raw.split_whitespace().filter_map(|w| self.normalize(w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lowercases_and_trims() {
        let n = Normalizer::default();
        assert_eq!(n.normalize("Hello!").unwrap().as_str(), "hello");
        assert_eq!(n.normalize("(World)").unwrap().as_str(), "world");
    }

    #[test]
    fn pure_punctuation_is_dropped() {
        let n = Normalizer::default();
        assert!(n.normalize("!!!").is_none());
        assert!(n.normalize("").is_none());
        assert!(n.normalize("   ").is_none());
    }

    #[test]
    fn strip_digits_option() {
        let n = Normalizer::new(NormalizeOptions { strip_digits: true, ..Default::default() });
        assert_eq!(n.normalize("abc123").unwrap().as_str(), "abc");
        assert!(n.normalize("12345").is_none());
    }

    #[test]
    fn digits_kept_by_default() {
        let n = Normalizer::default();
        assert_eq!(n.normalize("r2d2").unwrap().as_str(), "r2d2");
    }

    #[test]
    fn truncates_to_max_len() {
        let n = Normalizer::new(NormalizeOptions { max_len: 4, ..Default::default() });
        assert_eq!(n.normalize("abcdefgh").unwrap().as_str(), "abcd");
    }

    #[test]
    fn non_ascii_is_removed() {
        let n = Normalizer::default();
        assert_eq!(n.normalize("café").unwrap().as_str(), "caf");
    }

    #[test]
    fn normalize_all_splits_on_whitespace() {
        let n = Normalizer::default();
        let terms = n.normalize_all("The quick, brown ... fox");
        let words: Vec<&str> = terms.iter().map(|t| t.as_str()).collect();
        assert_eq!(words, ["the", "quick", "brown", "fox"]);
    }

    #[test]
    fn interior_punctuation_is_preserved_when_not_trimmed() {
        // trim_punctuation only strips the ends; "o'brien" keeps its apostrophe
        // removed because it's non-alphanumeric only at the boundary? It is
        // interior, so it stays.
        let n = Normalizer::default();
        assert_eq!(n.normalize("o'brien").unwrap().as_str(), "o'brien");
    }

    proptest! {
        /// Normalisation is idempotent: normalising a normalised term changes
        /// nothing.
        #[test]
        fn idempotent(raw in "\\PC{0,40}") {
            let n = Normalizer::default();
            if let Some(once) = n.normalize(&raw) {
                let twice = n.normalize(once.as_str()).expect("normalised term must renormalise");
                prop_assert_eq!(once, twice);
            }
        }

        /// The output never exceeds max_len and is always ASCII.
        #[test]
        fn output_bounds(raw in "\\PC{0,100}") {
            let n = Normalizer::default();
            if let Some(t) = n.normalize(&raw) {
                prop_assert!(t.len() <= n.options().max_len);
                prop_assert!(t.as_str().is_ascii());
                prop_assert!(!t.is_empty());
            }
        }
    }
}
