//! The term scanner (Stage 2's inner loop).
//!
//! The paper's term extractor reads each file and extracts *terms* —
//! maximal runs of letters and digits — from plain ASCII text.  The
//! [`Tokenizer`] here does the same: it walks a byte slice (or an
//! [`std::io::Read`] stream) and yields terms, optionally lowercased and
//! length-filtered via [`TokenizerOptions`].
//!
//! # Allocation contract
//!
//! There is one scanning loop, [`Scanner::next_token`].  It yields each token
//! as a `&str` borrowed from a caller-owned buffer that is overwritten by the
//! next call, so scanning a file allocates nothing beyond that buffer's
//! growth to the longest token.  Whoever needs an owned [`Term`] pays for it:
//! [`Tokenizer::tokenize`] and [`Tokenizer::terms`] are thin wrappers that
//! allocate one `Arc<str>` per *occurrence*; the build path instead feeds the
//! borrowed tokens to [`WordListBuilder::push_str`](crate::wordlist::WordListBuilder::push_str),
//! which allocates per *distinct* term.
//!
//! The scanner also keeps [`TokenStats`] so the pipeline can report how many
//! bytes were scanned and how many raw terms were produced — these numbers
//! feed the platform simulator's cost model.

use std::io::{self, Read};

use serde::{Deserialize, Serialize};

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
    /// Wraps an already-normalised string as a term.
    ///
    /// Most code should obtain terms from the [`Tokenizer`] instead.
    #[must_use]
    pub fn new(s: impl Into<String>) -> Self {
        Term(std::sync::Arc::from(s.into()))
    }

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
    /// Lowercase every term (`true` in the reference configuration).
    pub lowercase: bool,
    /// Discard terms shorter than this many bytes.
    pub min_term_len: usize,
    /// Discard terms longer than this many bytes (guards against binary junk).
    pub max_term_len: usize,
    /// Treat digits as term characters.
    pub include_digits: bool,
}

impl Default for TokenizerOptions {
    fn default() -> Self {
        TokenizerOptions {
            lowercase: true,
            min_term_len: 1,
            max_term_len: 64,
            include_digits: true,
        }
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

    fn is_term_byte(&self, b: u8) -> bool {
        b.is_ascii_alphabetic() || (self.options.include_digits && b.is_ascii_digit())
    }

    /// Starts scanning `text`.  Tokens come out of
    /// [`Scanner::next_token`]; this is the allocation-free entry point every
    /// other method here wraps.
    #[must_use]
    pub fn scan<'a>(&'a self, text: &'a [u8]) -> Scanner<'a> {
        Scanner { tokenizer: self, text, pos: 0, stats: TokenStats::default() }
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

    /// Reads a stream to the end (byte-by-byte semantics, buffered I/O) and
    /// tokenises its contents.
    ///
    /// This mirrors the paper's "empty scanner" experiment: the same read loop
    /// is used both for the read-only baseline and for real extraction.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the underlying reader.
    pub fn tokenize_reader<R: Read>(&self, mut reader: R) -> io::Result<(Vec<Term>, TokenStats)> {
        let mut buf = Vec::new();
        reader.read_to_end(&mut buf)?;
        Ok(self.tokenize(&buf))
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

/// A cursor over one byte slice, created by [`Tokenizer::scan`].
#[derive(Debug, Clone)]
pub struct Scanner<'a> {
    tokenizer: &'a Tokenizer,
    text: &'a [u8],
    pos: usize,
    stats: TokenStats,
}

impl Scanner<'_> {
    /// The next term that passes the length filters, normalised into
    /// `token` (cleared first) and borrowed from it; `None` at the end of
    /// the text.
    pub fn next_token<'b>(&mut self, token: &'b mut String) -> Option<&'b str> {
        let tokenizer = self.tokenizer;
        let options = &tokenizer.options;
        loop {
            let rest = &self.text[self.pos..];
            let Some(skipped) = rest.iter().position(|&b| tokenizer.is_term_byte(b)) else {
                self.pos = self.text.len();
                return None;
            };
            let rest = &rest[skipped..];
            let len = rest.iter().position(|&b| !tokenizer.is_term_byte(b)).unwrap_or(rest.len());
            self.pos += skipped + len;
            if len < options.min_term_len || len > options.max_term_len {
                self.stats.terms_filtered += 1;
                continue;
            }
            let raw = std::str::from_utf8(&rest[..len]).expect("term bytes are ASCII");
            token.clear();
            token.push_str(raw);
            if options.lowercase {
                token.make_ascii_lowercase();
            }
            self.stats.terms_emitted += 1;
            return Some(token);
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
    fn preserves_case_when_disabled() {
        let tok = Tokenizer::new(TokenizerOptions { lowercase: false, ..Default::default() });
        let (terms, _) = tok.tokenize(b"MixedCase");
        assert_eq!(terms[0].as_str(), "MixedCase");
    }

    #[test]
    fn digits_follow_option() {
        let with = Tokenizer::default();
        let (terms, _) = with.tokenize(b"abc123 456");
        assert_eq!(terms.iter().map(Term::as_str).collect::<Vec<_>>(), ["abc123", "456"]);

        let without =
            Tokenizer::new(TokenizerOptions { include_digits: false, ..Default::default() });
        let (terms, _) = without.tokenize(b"abc123 456");
        assert_eq!(terms.iter().map(Term::as_str).collect::<Vec<_>>(), ["abc"]);
    }

    #[test]
    fn length_filters_apply() {
        let tok = Tokenizer::new(TokenizerOptions {
            min_term_len: 3,
            max_term_len: 5,
            ..Default::default()
        });
        let (terms, stats) = tok.tokenize(b"a ab abc abcd abcde abcdef");
        let words: Vec<&str> = terms.iter().map(Term::as_str).collect();
        assert_eq!(words, ["abc", "abcd", "abcde"]);
        assert_eq!(stats.terms_filtered, 3);
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
    fn tokenize_reader_matches_slice() {
        let tok = Tokenizer::default();
        let text = b"read me from a stream".to_vec();
        let (from_reader, _) = tok.tokenize_reader(&text[..]).unwrap();
        let (from_slice, _) = tok.tokenize(&text);
        assert_eq!(from_reader, from_slice);
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
        let (terms, _) = tok.tokenize("naïve café".as_bytes());
        // The UTF-8 continuation bytes split the words; every produced term is
        // still pure ASCII.
        assert!(terms.iter().all(|t| t.as_str().is_ascii()));
        assert!(terms.iter().any(|t| t.as_str() == "na"));
        assert!(terms.iter().any(|t| t.as_str() == "caf"));
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
        /// Every term the tokenizer produces is non-empty, within the length
        /// bounds, made only of term characters, and lowercase when requested.
        #[test]
        fn produced_terms_respect_invariants(text in proptest::collection::vec(any::<u8>(), 0..2000)) {
            let tok = Tokenizer::default();
            let (terms, stats) = tok.tokenize(&text);
            prop_assert_eq!(stats.bytes_scanned, text.len() as u64);
            for t in &terms {
                prop_assert!(!t.is_empty());
                prop_assert!(t.len() <= tok.options().max_term_len);
                prop_assert!(t.as_str().bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()));
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
