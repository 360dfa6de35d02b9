//! Integration tests for the query layer against indices produced by the
//! real pipeline: the joined index (Implementations 1/2) and the replica set
//! (Implementation 3) must answer every query identically.

use dsearch::core::{Configuration, Implementation, IndexGenerator, IndexOutcome};
use dsearch::corpus::{materialize_to_memfs, CorpusSpec};
use dsearch::query::{Query, Searcher};
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
