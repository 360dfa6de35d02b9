//! Integration tests for the query layer against indices produced by the
//! real pipeline: the joined index (Implementations 1/2) and the replica set
//! (Implementation 3) must answer every query identically.

use proptest::prelude::*;

use dsearch::core::{
    Configuration, GeneratorOptions, Implementation, IndexGenerator, IndexOutcome,
};
use dsearch::corpus::{materialize_to_memfs, CorpusSpec};
use dsearch::query::{ParseError, Query, Searcher};
use dsearch::text::Term;
use dsearch::vfs::{MemFs, VPath};

fn build_outcomes(
) -> (dsearch::index::InMemoryIndex, dsearch::index::DocTable, dsearch::index::IndexSet) {
    let (fs, _) = materialize_to_memfs(&CorpusSpec::tiny(), 5);
    let generator = IndexGenerator::default();

    let joined_run = generator
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(3, 0, 1))
        .unwrap();
    let (joined, docs) = joined_run.outcome.into_single_index();

    let replica_run = generator
        .run(&fs, &VPath::root(), Implementation::ReplicateNoJoin, Configuration::new(3, 0, 0))
        .unwrap();
    let IndexOutcome::Replicas { set, .. } = replica_run.outcome else {
        panic!("implementation 3 keeps replicas");
    };
    (joined, docs, set)
}

fn frequent_terms(index: &dsearch::index::InMemoryIndex, n: usize) -> Vec<String> {
    let mut by_frequency: Vec<_> = index.iter().collect();
    by_frequency
        .sort_by_key(|(t, postings)| (std::cmp::Reverse(postings.len()), t.as_str().to_owned()));
    by_frequency.iter().take(n).map(|(t, _)| t.to_string()).collect()
}

#[test]
fn joined_and_replicated_indices_answer_queries_identically() {
    let (joined, docs, set) = build_outcomes();
    let single = Searcher::new([&joined], &docs);
    let multi = Searcher::new(set.replicas(), &docs);
    let multi_parallel = Searcher::new(set.replicas(), &docs).with_parallel_lookup(true);

    let terms = frequent_terms(&joined, 6);
    let queries = [
        terms[0].clone(),
        format!("{} {}", terms[0], terms[1]),
        format!("{} OR {}", terms[2], terms[3]),
        format!("{} {} OR {} {}", terms[0], terms[4], terms[1], terms[5]),
        "termthatdoesnotexistanywhere".to_string(),
        format!("{} termthatdoesnotexistanywhere", terms[0]),
    ];
    for raw in queries {
        let query = Query::parse(&raw).unwrap();
        let expected = single.search(&query);
        assert_eq!(multi.search(&query), expected, "query {raw:?}");
        assert_eq!(multi_parallel.search(&query), expected, "parallel query {raw:?}");
    }
}

#[test]
fn search_results_agree_with_raw_postings() {
    let (joined, docs, _) = build_outcomes();
    let single = Searcher::new([&joined], &docs);
    for term_text in frequent_terms(&joined, 10) {
        let term = Term::from(term_text.as_str());
        let query = Query::parse(&term_text).unwrap();
        let results = single.search(&query);
        let postings = joined.postings(&term).cloned().unwrap_or_default();
        assert_eq!(results.len(), postings.len(), "term {term_text}");
        let mut result_ids: Vec<_> = results.file_ids();
        result_ids.sort();
        let posting_ids: Vec<_> = postings.iter().collect();
        assert_eq!(result_ids, posting_ids);
    }
}

#[test]
fn queries_against_a_known_corpus_return_exactly_the_right_files() {
    let fs = MemFs::new();
    fs.add_file(&VPath::new("recipes/pasta.txt"), b"tomato basil garlic pasta".to_vec()).unwrap();
    fs.add_file(&VPath::new("recipes/salad.txt"), b"tomato cucumber basil".to_vec()).unwrap();
    fs.add_file(&VPath::new("notes/todo.txt"), b"buy garlic and tomato".to_vec()).unwrap();
    fs.add_file(&VPath::new("notes/ideas.txt"), b"basil lemonade".to_vec()).unwrap();

    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::SharedLocked, Configuration::new(2, 0, 0))
        .unwrap();
    let (index, docs) = run.outcome.into_single_index();
    let searcher = Searcher::new([&index], &docs);

    let paths = |raw: &str| -> Vec<String> {
        let mut p: Vec<String> = searcher
            .search(&Query::parse(raw).unwrap())
            .hits()
            .iter()
            .map(|h| h.path.to_string())
            .collect();
        p.sort();
        p
    };

    assert_eq!(paths("tomato"), vec!["notes/todo.txt", "recipes/pasta.txt", "recipes/salad.txt"]);
    assert_eq!(paths("tomato basil"), vec!["recipes/pasta.txt", "recipes/salad.txt"]);
    assert_eq!(paths("garlic tomato"), vec!["notes/todo.txt", "recipes/pasta.txt"]);
    assert_eq!(paths("lemonade OR cucumber"), vec!["notes/ideas.txt", "recipes/salad.txt"]);
    assert_eq!(paths("TOMATO, BASIL!"), vec!["recipes/pasta.txt", "recipes/salad.txt"]);
    assert!(paths("pizza").is_empty());
}

#[test]
fn ranking_prefers_files_matching_more_terms() {
    let fs = MemFs::new();
    fs.add_file(&VPath::new("both.txt"), b"rust parallel".to_vec()).unwrap();
    fs.add_file(&VPath::new("one.txt"), b"rust only".to_vec()).unwrap();

    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(1, 0, 0))
        .unwrap();
    let (index, docs) = run.outcome.into_single_index();
    let searcher = Searcher::new([&index], &docs);
    let results = searcher.search(&Query::parse("rust parallel OR rust").unwrap());
    assert_eq!(results.len(), 2);
    assert_eq!(&*results.hits()[0].path, "both.txt");
    assert_eq!(results.hits()[0].matched_terms, 2);
    assert_eq!(&*results.hits()[1].path, "one.txt");
}

/// Indexes `files` (path, bytes) with the paper's defaults, with or without
/// `--formats`, and returns a function from a query to the sorted paths it
/// finds.
fn store_of(formats: bool, files: &[(&str, &[u8])]) -> impl Fn(&str) -> Vec<String> {
    let fs = MemFs::new();
    for (path, bytes) in files {
        fs.add_file(&VPath::new(path), bytes.to_vec()).unwrap();
    }
    let options = GeneratorOptions { formats, ..GeneratorOptions::paper_defaults() };
    let run = IndexGenerator::new(options)
        .run(&fs, &VPath::root(), Implementation::SharedLocked, Configuration::new(1, 0, 0))
        .unwrap();
    let (index, docs) = run.outcome.into_single_index();
    move |raw: &str| {
        let searcher = Searcher::new([&index], &docs);
        let query = Query::parse(raw).unwrap();
        let mut paths: Vec<String> =
            searcher.search(&query).hits().iter().map(|h| h.path.to_string()).collect();
        paths.sort();
        paths
    }
}

#[test]
fn query_words_read_like_document_words() {
    let word64 = "w".repeat(64);
    let word70 = "w".repeat(70);
    let long = format!("{word64} idea");
    for formats in [false, true] {
        let paths = store_of(
            formats,
            &[
                ("mail.txt", b"Send an e-mail about report.pdf, a naive idea."),
                ("cafe.txt", "A naïve café plan.".as_bytes()),
                ("long.txt", long.as_bytes()),
                ("quote.txt", b"I don't know."),
                // "Grüße aus München" in Latin-1: 0xFC is ü, 0xDF is ß.
                ("latin1.txt", b"Gr\xfc\xdfe aus M\xfcnchen"),
            ],
        );
        assert_eq!(paths("e-mail"), ["mail.txt"]);
        assert_eq!(paths("report.pdf"), ["mail.txt"]);
        assert_eq!(paths("report.pd*"), ["mail.txt"]);
        for word in ["naïve", "naive", "NAÏVE"] {
            assert_eq!(paths(word), ["cafe.txt", "mail.txt"], "{word}, formats {formats}");
        }
        for word in ["café", "cafe", "CAFÉ"] {
            assert_eq!(paths(word), ["cafe.txt"], "{word}, formats {formats}");
        }
        for word in ["Grüße", "grusse", "münchen", "munchen"] {
            assert_eq!(paths(word), ["latin1.txt"], "{word}, formats {formats}");
        }
        assert_eq!(paths("don't"), ["quote.txt"]);
        assert_eq!(paths("idea -e-mail"), ["long.txt"]);
        assert_eq!(paths(&word64), ["long.txt"]);
        // A word too long for the build names no indexed term: cutting it to
        // 64 bytes would find long.txt, dropping it would find every "idea".
        assert!(paths(&word70).is_empty());
        assert!(paths(&format!("{word70} idea")).is_empty());
        assert!(paths(&format!("idea AND {word70}")).is_empty());
        assert_eq!(paths(&format!("{word70} OR plan")), ["cafe.txt"]);
    }
}

proptest! {
    /// Every word of a document finds it: a query word is read by the
    /// scanner that read the document, so it names terms the document holds
    /// — or, when it holds no term, it parses to none.  The document is there
    /// twice, in UTF-8 and in Latin-1, with and without `--formats`.
    #[test]
    fn each_word_of_a_document_finds_it(
        words in proptest::collection::vec("[a-zA-Z0-9.,'_/éïßæÉñÆÿ-]{1,12}", 1..12),
        formats in any::<bool>(),
    ) {
        let text = words.join(" ");
        // Every character drawn is at most U+00FF, so each is one Latin-1
        // byte; and none of those bytes continues a UTF-8 sequence, so the
        // file is not valid UTF-8 once it holds any of them.
        let latin1: Vec<u8> = text.chars().map(|c| u8::try_from(u32::from(c)).unwrap()).collect();
        let paths = store_of(formats, &[("doc.txt", text.as_bytes()), ("latin1.txt", &latin1)]);
        for word in &words {
            // A leading `-` is query syntax (exclusion), not part of a word.
            let word = word.trim_start_matches('-');
            if matches!(word, "AND" | "OR" | "NOT") {
                continue;
            }
            match Query::parse(word) {
                Ok(_) => prop_assert_eq!(
                    paths(word),
                    ["doc.txt", "latin1.txt"],
                    "word {:?} of {:?}, formats {}", word, text, formats
                ),
                Err(e) => prop_assert_eq!(e, ParseError::Empty, "word {:?}", word),
            }
        }
    }
}
