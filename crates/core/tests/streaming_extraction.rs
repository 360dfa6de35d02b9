//! Streaming extraction is the materialising path, minus the allocations.
//!
//! `Extractor::extract_file` scans borrowed tokens straight into a
//! long-lived `WordListBuilder`.  These properties pin it, file after file on
//! one warm extractor, to the two things it replaced — `Tokenizer::tokenize`
//! feeding a fresh `WordListBuilder::push` — and to a model written here
//! that shares only the folding table, `decode::fold`, with the scanner.

use dsearch_core::distribute::WorkItem;
use dsearch_core::stage2::Extractor;
use dsearch_index::FileId;
use dsearch_text::decode::fold;
use dsearch_text::tokenizer::{Term, Tokenizer};
use dsearch_text::wordlist::WordListBuilder;
use dsearch_vfs::{MemFs, VPath};
use proptest::prelude::*;

/// One piece of a generated file.  `kind` picks the shape, so every run
/// mixes raw (often non-UTF-8) bytes with tokens of 0, 1, 64 and 65 bytes;
/// `word` may hold accented letters.
fn piece(kind: u8, word: &str, raw: &[u8]) -> Vec<u8> {
    let run = |len: usize| word.bytes().chain(std::iter::repeat(b'q')).take(len).collect();
    match kind {
        0 => raw.to_vec(),
        1 => word.as_bytes().to_vec(),
        2 => word.to_ascii_uppercase().into_bytes(),
        3 => run(1),
        4 => run(64),
        5 => run(65),
        _ => Vec::new(),
    }
}

/// A file of `pieces`.  Without `utf8`, half the separators are single
/// bytes that are not ASCII (some of them Latin-1 letters), so the file
/// reads as Latin-1; with it, raw pieces are left out and those separators
/// are `→`, so it reads as UTF-8 unless a one-byte run cut a letter in two.
fn file_bytes(pieces: &[(u8, String, Vec<u8>, u8)], utf8: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (kind, word, raw, separator) in pieces {
        if !(utf8 && *kind == 0) {
            bytes.extend(piece(*kind, word, raw));
        }
        match (separator % 2 == 0, utf8) {
            (true, _) => bytes.push(b' '),
            (false, false) => bytes.push(0x80 | separator),
            (false, true) => bytes.extend("→".as_bytes()),
        }
    }
    bytes
}

/// The specification, by hand: the text read as UTF-8, else as Latin-1;
/// maximal runs of ASCII letters, digits and letters `fold` spells, spelled
/// in lower case; at most 64 bytes; condensed in first-occurrence order.
fn model(text: &[u8]) -> (Vec<String>, Vec<u32>, u64) {
    let chars: Vec<char> = match std::str::from_utf8(text) {
        Ok(text) => text.chars().collect(),
        Err(_) => text.iter().map(|&b| char::from(b)).collect(),
    };
    let mut runs: Vec<String> = vec![String::new()];
    for c in chars {
        if c.is_ascii_alphanumeric() {
            runs.last_mut().unwrap().push(c.to_ascii_lowercase());
        } else if let Some(letters) = fold(c) {
            runs.last_mut().unwrap().push_str(letters);
        } else {
            runs.push(String::new());
        }
    }
    let mut terms: Vec<String> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut occurrences = 0;
    for word in runs {
        if word.is_empty() || word.len() > 64 {
            continue;
        }
        occurrences += 1;
        match terms.iter().position(|t| *t == word) {
            Some(i) => counts[i] += 1,
            None => {
                terms.push(word);
                counts.push(1);
            }
        }
    }
    (terms, counts, occurrences)
}

proptest! {
    #[test]
    fn streaming_extraction_equals_tokenize_then_push(
        files in proptest::collection::vec(
            proptest::collection::vec(
                (0u8..7, "[a-zA-Z0-9éÆßüŁ]{0,12}", proptest::collection::vec(any::<u8>(), 0..6), any::<u8>()),
                0..60,
            ),
            1..5,
        ),
        utf8 in any::<bool>(),
    ) {
        let tokenizer = Tokenizer::default();
        let mut extractor = Extractor::new(tokenizer.clone());
        let fs = MemFs::new();

        for (i, pieces) in files.iter().enumerate() {
            let bytes = file_bytes(pieces, utf8);
            let path = VPath::new(format!("f{i}.txt"));
            fs.add_file(&path, bytes.clone()).unwrap();
            let item = WorkItem { file_id: FileId(i as u32), path, size: bytes.len() as u64 };
            let streamed = extractor.extract_file(&fs, &item).unwrap();

            let (raw_terms, stats) = tokenizer.tokenize(&bytes);
            let mut builder = WordListBuilder::new();
            for term in raw_terms {
                builder.push(term);
            }
            let list = builder.finish();
            prop_assert_eq!(&streamed.terms[..], list.terms());
            prop_assert_eq!(&streamed.counts[..], list.counts());
            prop_assert_eq!(streamed.occurrences, list.occurrences());
            prop_assert_eq!(streamed.occurrences, stats.terms_emitted);
            prop_assert_eq!(streamed.bytes, bytes.len() as u64);
            prop_assert_eq!(stats.bytes_scanned, bytes.len() as u64);

            let (terms, counts, occurrences) = model(&bytes);
            let streamed_words: Vec<&str> = streamed.terms.iter().map(Term::as_str).collect();
            prop_assert_eq!(streamed_words, terms);
            prop_assert_eq!(streamed.counts, counts);
            prop_assert_eq!(streamed.occurrences, occurrences);
        }
    }
}
