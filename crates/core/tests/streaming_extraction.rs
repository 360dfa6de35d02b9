//! Streaming extraction is the materialising path, minus the allocations.
//!
//! `Extractor::extract_file` scans borrowed tokens straight into a
//! long-lived `WordListBuilder`.  These properties pin it, file after file on
//! one warm extractor, to the two things it replaced — `Tokenizer::tokenize`
//! feeding a fresh `WordListBuilder::push` — and to a model written here
//! that shares no code with the scanner.

use dsearch_core::distribute::WorkItem;
use dsearch_core::stage2::Extractor;
use dsearch_index::FileId;
use dsearch_text::tokenizer::{Term, Tokenizer, TokenizerOptions};
use dsearch_text::wordlist::WordListBuilder;
use dsearch_vfs::{MemFs, VPath};
use proptest::prelude::*;

/// One piece of a generated file.  `kind` picks the shape, so every run
/// mixes raw (often non-UTF-8) bytes with tokens of 0, 1, 64 and 65 bytes.
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

fn file_bytes(pieces: &[(u8, String, Vec<u8>, u8)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (kind, word, raw, separator) in pieces {
        bytes.extend(piece(*kind, word, raw));
        // Half the separators are not ASCII at all.
        bytes.push(if separator % 2 == 0 { b' ' } else { 0x80 | separator });
    }
    bytes
}

/// The specification, by hand: maximal runs of term bytes, length-filtered,
/// lower-cased, condensed in first-occurrence order.
fn model(text: &[u8], options: &TokenizerOptions) -> (Vec<String>, Vec<u32>, u64) {
    let is_term =
        |b: &u8| b.is_ascii_alphabetic() || (options.include_digits && b.is_ascii_digit());
    let mut terms: Vec<String> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut occurrences = 0;
    for run in text.split(|b| !is_term(b)) {
        if run.is_empty() || run.len() < options.min_term_len || run.len() > options.max_term_len {
            continue;
        }
        let mut word = String::from_utf8(run.to_vec()).unwrap();
        if options.lowercase {
            word.make_ascii_lowercase();
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
                (0u8..7, "[a-zA-Z0-9]{0,12}", proptest::collection::vec(any::<u8>(), 0..6), any::<u8>()),
                0..60,
            ),
            1..5,
        ),
        lowercase in any::<bool>(),
        include_digits in any::<bool>(),
        min_term_len in 0usize..3,
    ) {
        let options =
            TokenizerOptions { lowercase, include_digits, min_term_len, ..Default::default() };
        let tokenizer = Tokenizer::new(options.clone());
        let mut extractor = Extractor::new(tokenizer.clone());
        let fs = MemFs::new();

        for (i, pieces) in files.iter().enumerate() {
            let bytes = file_bytes(pieces);
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

            let (terms, counts, occurrences) = model(&bytes, &options);
            let streamed_words: Vec<&str> = streamed.terms.iter().map(Term::as_str).collect();
            prop_assert_eq!(streamed_words, terms);
            prop_assert_eq!(streamed.counts, counts);
            prop_assert_eq!(streamed.occurrences, occurrences);
        }
    }
}
