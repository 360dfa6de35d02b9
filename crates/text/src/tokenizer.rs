//! The term scanner (Stage 2's inner loop).
//!
//! The paper's term extractor reads each file and extracts *terms* —
//! maximal runs of letters and digits — from plain ASCII text.  The
//! [`Tokenizer`] here does the same, under one rule that the build and
//! `Query::parse` share:
//!
//! * ASCII letters and digits are term characters, lower-cased;
//! * an accented Latin letter is folded to ASCII by one table, [`fold`]
//!   (`É` → `e`, `ß` → `ss`), so `naïve` is the term `naive`;
//! * any other character separates terms;
//! * a term longer than [`TokenizerOptions::max_term_len`] bytes is dropped.
//!
//! A buffer's non-ASCII bytes read as UTF-8 when the whole buffer is valid
//! UTF-8 and as Latin-1 otherwise ([`utf8_or_latin1`](crate::decode::utf8_or_latin1)
//! is the same rule for a whole buffer).  The scanner decides this once, at the first non-ASCII
//! byte it meets, so an ASCII buffer never pays for the check.
//!
//! # Allocation contract
//!
//! There is one scanning loop, [`Scanner::next_token`].  It yields each token
//! as a `&str`: lent from the text itself when the token is ASCII and needs
//! no case folding, else folded into a caller-owned buffer that is overwritten by the
//! next call, so scanning a file allocates nothing beyond that buffer's
//! growth to the longest folded token.  Whoever needs an owned [`Term`] pays
//! for it: [`Tokenizer::tokenize`] and [`Tokenizer::terms`] are thin
//! wrappers that allocate one `Arc<str>` per *occurrence*; the build path
//! instead feeds the borrowed tokens to [`WordListBuilder::push_str`](crate::wordlist::WordListBuilder::push_str),
//! which allocates per *distinct* term.
//!
//! The scanner also keeps [`TokenStats`] so the pipeline can report how many
//! bytes were scanned and how many raw terms were produced — these numbers
//! feed the platform simulator's cost model.

use serde::{Deserialize, Serialize};

use crate::decode::fold;

/// A single extracted term.
///
/// Terms are interned behind an `Arc<str>`: cloning one — which the index
/// does constantly when building dictionaries, sealing snapshots and merging
/// replicas — bumps a reference count instead of copying the text.  A sealed
/// shard's sorted dictionary therefore *shares* the vocabulary's string
/// storage rather than duplicating it.  The newtype also keeps terms from
/// being confused with file names or raw text.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Term(std::sync::Arc<str>);

impl Term {
    /// Borrows the term's text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Length of the term in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` for the empty term (never produced by the tokenizer).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Consumes the term, returning the underlying string.  Always copies:
    /// an `Arc<str>` cannot be unwrapped into a `String` without one.
    #[must_use]
    pub fn into_string(self) -> String {
        String::from(&*self.0)
    }

    /// Number of live clones sharing this term's text (diagnostics for the
    /// interning win: a dictionary entry sharing its map key reports 2+).
    #[must_use]
    pub fn shared_count(&self) -> usize {
        std::sync::Arc::strong_count(&self.0)
    }
}

impl Serialize for Term {
    fn serialize(&self) -> serde::Value {
        serde::Value::Str(self.0.to_string())
    }
}

impl Deserialize for Term {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        v.as_str().map(Term::from).ok_or_else(|| serde::DeError::new("expected term string"))
    }
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Term {
    fn from(s: &str) -> Self {
        Term(std::sync::Arc::from(s))
    }
}

impl From<String> for Term {
    fn from(s: String) -> Self {
        Term(std::sync::Arc::from(s))
    }
}

impl AsRef<str> for Term {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl std::borrow::Borrow<str> for Term {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// Options controlling term extraction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenizerOptions {
    /// Discard terms longer than this many bytes (guards against binary junk).
    pub max_term_len: usize,
}

impl Default for TokenizerOptions {
    fn default() -> Self {
        TokenizerOptions { max_term_len: 64 }
    }
}

/// Counters describing one tokenisation run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenStats {
    /// Bytes examined by the scanner.
    pub bytes_scanned: u64,
    /// Terms produced after filtering (including duplicates).
    pub terms_emitted: u64,
    /// Terms discarded by the length filters.
    pub terms_filtered: u64,
}

impl TokenStats {
    /// Merges another run's counters into this one.
    pub fn merge(&mut self, other: &TokenStats) {
        self.bytes_scanned += other.bytes_scanned;
        self.terms_emitted += other.terms_emitted;
        self.terms_filtered += other.terms_filtered;
    }
}

/// Extracts terms from plain text.
///
/// # Example
///
/// ```
/// use dsearch_text::tokenizer::Tokenizer;
///
/// let tok = Tokenizer::default();
/// let terms: Vec<String> = tok
///     .terms(b"Hello, world! Hello again")
///     .map(|t| t.into_string())
///     .collect();
/// assert_eq!(terms, ["hello", "world", "hello", "again"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tokenizer {
    options: TokenizerOptions,
}

impl Tokenizer {
    /// Creates a tokenizer with the given options.
    #[must_use]
    pub fn new(options: TokenizerOptions) -> Self {
        Tokenizer { options }
    }

    /// The options this tokenizer was built with.
    #[must_use]
    pub fn options(&self) -> &TokenizerOptions {
        &self.options
    }

    /// Starts scanning `text`.  Tokens come out of
    /// [`Scanner::next_token`]; this is the allocation-free entry point every
    /// other method here wraps.
    #[must_use]
    pub fn scan<'a>(&'a self, text: &'a [u8]) -> Scanner<'a> {
        Scanner { tokenizer: self, text, pos: 0, utf8: None, stats: TokenStats::default() }
    }

    /// Tokenises a byte slice, returning the terms and scan statistics.
    #[must_use]
    pub fn tokenize(&self, text: &[u8]) -> (Vec<Term>, TokenStats) {
        let mut scanner = self.scan(text);
        let mut token = String::new();
        let mut terms = Vec::new();
        while let Some(t) = scanner.next_token(&mut token) {
            terms.push(Term::from(t));
        }
        (terms, scanner.stats())
    }

    /// Convenience wrapper returning only the terms of a byte slice.
    pub fn terms<'a>(&'a self, text: &'a [u8]) -> impl Iterator<Item = Term> + 'a {
        let mut scanner = self.scan(text);
        let mut token = String::new();
        std::iter::from_fn(move || scanner.next_token(&mut token).map(Term::from))
    }

    /// Scans a byte slice without extracting terms, returning only the number
    /// of bytes read.
    ///
    /// This is the "empty scanner" used to decide whether the program is
    /// I/O bound (Section 3 of the paper).
    #[must_use]
    pub fn scan_only(&self, text: &[u8]) -> u64 {
        // A volatile-ish fold so the loop is not optimised away entirely in
        // benchmarks; mirrors reading each byte exactly once.
        let mut checksum: u64 = 0;
        for &b in text {
            checksum = checksum.wrapping_add(u64::from(b));
        }
        std::hint::black_box(checksum);
        text.len() as u64
    }
}

/// What each byte is to the scan's ASCII loop, looked up because that loop
/// tests every byte of the text: [`TERM`] for an ASCII letter or digit,
/// [`NON_ASCII`] for a byte that only the folding path reads, 0 for ASCII
/// that separates terms.
const CLASSES: [u8; 256] = {
    let mut classes = [0; 256];
    let mut b = 0;
    while b < 256 {
        if (b as u8).is_ascii_alphanumeric() {
            classes[b] = TERM;
        } else if b >= 128 {
            classes[b] = NON_ASCII;
        }
        b += 1;
    }
    classes
};
const TERM: u8 = 1;
const NON_ASCII: u8 = 2;

/// A cursor over one byte slice, created by [`Tokenizer::scan`].
#[derive(Debug, Clone)]
pub struct Scanner<'a> {
    tokenizer: &'a Tokenizer,
    text: &'a [u8],
    pos: usize,
    /// How the text's non-ASCII bytes read, decided at the first of them:
    /// `Some(Some(text))` as that UTF-8 text, `Some(None)` as Latin-1.
    utf8: Option<Option<&'a str>>,
    stats: TokenStats,
}

impl<'a> Scanner<'a> {
    /// The next term that passes the length filter; `None` at the end of
    /// the text.  An ASCII term that needs no case folding is lent straight
    /// from the text; any other is folded into `token` (cleared first) and
    /// borrowed from it.
    pub fn next_token<'b>(&mut self, token: &'b mut String) -> Option<&'b str>
    where
        'a: 'b,
    {
        let max_term_len = self.tokenizer.options.max_term_len;
        loop {
            let text: &'a [u8] = self.text;
            let rest = &text[self.pos..];
            let Some(skipped) = rest.iter().position(|&b| CLASSES[usize::from(b)] != 0) else {
                self.pos = text.len();
                return None;
            };
            let start = self.pos + skipped;
            let rest = &text[start..];
            let len =
                rest.iter().position(|&b| CLASSES[usize::from(b)] != TERM).unwrap_or(rest.len());
            if rest.get(len).is_some_and(|&b| CLASSES[usize::from(b)] == NON_ASCII) {
                self.pos = self.fold_token(start, token);
                if token.is_empty() {
                    continue;
                }
                if token.len() > max_term_len {
                    self.stats.terms_filtered += 1;
                    continue;
                }
                self.stats.terms_emitted += 1;
                return Some(token);
            }
            self.pos = start + len;
            if len > max_term_len {
                self.stats.terms_filtered += 1;
                continue;
            }
            let raw = std::str::from_utf8(&rest[..len]).expect("term bytes are ASCII");
            self.stats.terms_emitted += 1;
            if !raw.bytes().any(|b| b.is_ascii_uppercase()) {
                return Some(raw);
            }
            token.clear();
            token.push_str(raw);
            token.make_ascii_lowercase();
            return Some(token);
        }
    }

    /// Folds the term that starts at `start` and reaches a non-ASCII byte
    /// into `token`, and returns where scanning goes on.  An unmapped
    /// character ends the term and is consumed with it, so `token` is left
    /// empty when the term begins with one.  Past `max_term_len` bytes the
    /// term is read to its end but no longer copied.  Kept out of line so
    /// that the ASCII loop of [`Self::next_token`] stays small.
    #[inline(never)]
    fn fold_token(&mut self, start: usize, token: &mut String) -> usize {
        let max_term_len = self.tokenizer.options.max_term_len;
        token.clear();
        let mut pos = start;
        while let Some(&b) = self.text.get(pos) {
            if b.is_ascii() {
                if !b.is_ascii_alphanumeric() {
                    break;
                }
                if token.len() <= max_term_len {
                    token.push(char::from(b.to_ascii_lowercase()));
                }
                pos += 1;
                continue;
            }
            let (c, width) = self.char_at(pos);
            pos += width;
            let Some(letters) = fold(c) else { break };
            if token.len() <= max_term_len {
                token.push_str(letters);
            }
        }
        pos
    }

    /// The character that starts with the non-ASCII byte at `pos`, and its
    /// width in bytes.  The first call decides how the text reads.
    fn char_at(&mut self, pos: usize) -> (char, usize) {
        let text = self.text;
        match *self.utf8.get_or_insert_with(|| std::str::from_utf8(text).ok()) {
            // A scan only ever stops on a character boundary.
            Some(utf8) => utf8
                .get(pos..)
                .and_then(|rest| rest.chars().next())
                .map_or((' ', 1), |c| (c, c.len_utf8())),
            None => (char::from(text[pos]), 1),
        }
    }

    /// Counters for the part of the text scanned so far.
    #[must_use]
    pub fn stats(&self) -> TokenStats {
        TokenStats { bytes_scanned: self.pos as u64, ..self.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        let tok = Tokenizer::default();
        let (terms, _) = tok.tokenize(b"alpha, beta; gamma-delta\nepsilon\tzeta");
        let words: Vec<&str> = terms.iter().map(Term::as_str).collect();
        assert_eq!(words, ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]);
    }

    #[test]
    fn lowercases_by_default() {
        let tok = Tokenizer::default();
        let (terms, _) = tok.tokenize(b"MixedCase TEXT");
        let words: Vec<&str> = terms.iter().map(Term::as_str).collect();
        assert_eq!(words, ["mixedcase", "text"]);
    }

    #[test]
    fn digits_are_term_characters() {
        let tok = Tokenizer::default();
        let (terms, _) = tok.tokenize(b"abc123 456");
        assert_eq!(terms.iter().map(Term::as_str).collect::<Vec<_>>(), ["abc123", "456"]);
    }

    #[test]
    fn length_filters_apply() {
        let tok = Tokenizer::new(TokenizerOptions { max_term_len: 5 });
        let (terms, stats) = tok.tokenize("a abcde abcdef abcdé abcdeé".as_bytes());
        let words: Vec<&str> = terms.iter().map(Term::as_str).collect();
        assert_eq!(words, ["a", "abcde", "abcde"]);
        assert_eq!(stats.terms_filtered, 2);
        assert_eq!(stats.terms_emitted, 3);
    }

    #[test]
    fn empty_input_produces_nothing() {
        let tok = Tokenizer::default();
        let (terms, stats) = tok.tokenize(b"");
        assert!(terms.is_empty());
        assert_eq!(stats.bytes_scanned, 0);
        assert_eq!(stats.terms_emitted, 0);
    }

    #[test]
    fn trailing_term_is_emitted() {
        let tok = Tokenizer::default();
        let (terms, _) = tok.tokenize(b"ends with term");
        assert_eq!(terms.last().unwrap().as_str(), "term");
    }

    #[test]
    fn stats_count_every_byte() {
        let tok = Tokenizer::default();
        let text = b"some text, with 42 numbers and---punctuation";
        let (_, stats) = tok.tokenize(text);
        assert_eq!(stats.bytes_scanned, text.len() as u64);
    }

    #[test]
    fn iterator_matches_batch_tokenize() {
        let tok = Tokenizer::default();
        let text = b"The quick brown fox; jumps over 2 lazy dogs!";
        let (batch, _) = tok.tokenize(text);
        let streamed: Vec<Term> = tok.terms(text).collect();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn scan_only_counts_bytes() {
        let tok = Tokenizer::default();
        assert_eq!(tok.scan_only(b"12345"), 5);
        assert_eq!(tok.scan_only(b""), 0);
    }

    #[test]
    fn non_ascii_bytes_are_separators() {
        let tok = Tokenizer::default();
        let (terms, _) = tok.tokenize("naïve café → x漢y".as_bytes());
        let words: Vec<&str> = terms.iter().map(Term::as_str).collect();
        // A letter the table folds joins its term; any other character
        // that is not ASCII separates terms, as punctuation does.
        assert_eq!(words, ["naive", "cafe", "x", "y"]);
    }

    #[test]
    fn a_token_that_needs_no_folding_is_lent_from_the_text() {
        let tok = Tokenizer::default();
        let text = b"plain, Mixed";
        let mut token = String::new();
        let mut scanner = tok.scan(text);
        let lent = scanner.next_token(&mut token).map(|t| (t.to_owned(), t.as_ptr()));
        assert_eq!(lent, Some(("plain".to_owned(), text.as_ptr())));
        assert_eq!(token.capacity(), 0, "nothing was copied");
        assert_eq!(scanner.next_token(&mut token), Some("mixed"));
        assert_eq!(token, "mixed");
    }

    #[test]
    fn term_display_and_conversions() {
        let t = Term::from("word");
        assert_eq!(t.to_string(), "word");
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        let s: String = t.into_string();
        assert_eq!(s, "word");
        let t2: Term = String::from("other").into();
        assert_eq!(t2.as_ref(), "other");
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = TokenStats { bytes_scanned: 10, terms_emitted: 2, terms_filtered: 1 };
        let b = TokenStats { bytes_scanned: 5, terms_emitted: 3, terms_filtered: 0 };
        a.merge(&b);
        assert_eq!(a, TokenStats { bytes_scanned: 15, terms_emitted: 5, terms_filtered: 1 });
    }

    proptest! {
        /// Whatever the bytes, scanning never panics, reads every byte, and
        /// yields only non-empty `[a-z0-9]` terms within the length bound.
        #[test]
        fn produced_terms_respect_invariants(
            soup in proptest::collection::vec(any::<u8>(), 0..2000),
            accented in "[a-zA-Z0-9 .\u{80}-\u{24f}→漢]{0,300}",
        ) {
            let tok = Tokenizer::default();
            for text in [&soup[..], accented.as_bytes()] {
                let (terms, stats) = tok.tokenize(text);
                prop_assert_eq!(stats.bytes_scanned, text.len() as u64);
                for t in &terms {
                    prop_assert!(!t.is_empty());
                    prop_assert!(t.len() <= tok.options().max_term_len);
                    prop_assert!(t.as_str().bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()));
                }
            }
        }

        /// Tokenising the concatenation "a b" yields the terms of a followed by
        /// the terms of b when joined by a separator.
        #[test]
        fn concatenation_with_separator_is_additive(a in "[a-z ]{0,100}", b in "[a-z ]{0,100}") {
            let tok = Tokenizer::default();
            let (ta, _) = tok.tokenize(a.as_bytes());
            let (tb, _) = tok.tokenize(b.as_bytes());
            let joined = format!("{a} {b}");
            let (tj, _) = tok.tokenize(joined.as_bytes());
            let mut expected = ta;
            expected.extend(tb);
            prop_assert_eq!(tj, expected);
        }
    }
}
