//! Cross-crate property-based tests.
//!
//! These check the system-level invariants the paper's design relies on,
//! over randomly generated corpora and queries rather than hand-picked
//! fixtures:
//!
//! * every implementation, configuration and option set builds the same
//!   index as the sequential baseline;
//! * query evaluation agrees with a brute-force reference model;
//! * persisted segments reproduce pipeline output exactly;
//! * incremental re-indexing after arbitrary mutations matches a rebuild.

mod common;

use proptest::prelude::*;
use std::collections::BTreeSet;

use common::{said, TempDir};

use dsearch::core::{Configuration, Implementation, IndexGenerator};
use dsearch::persist::segment::{read_segment, write_segment};
use dsearch::persist::IndexStore;
use dsearch::query::{Query, Searcher};
use dsearch::vfs::{MemFs, VPath};

/// A randomly generated tiny corpus: up to 12 files of lowercase words spread
/// over a couple of directories.
fn corpus_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(
        (
            // Directory 0..3 and a file name stem.
            (0u8..3, "[a-z]{3,8}"),
            // File body: 1..30 words from a deliberately small vocabulary so
            // terms overlap across files.
            proptest::collection::vec(
                "(alpha|beta|gamma|delta|index|search|lock|join|core|disk)",
                1..30,
            ),
        ),
        1..12,
    )
    .prop_map(|files| {
        let mut seen = BTreeSet::new();
        files
            .into_iter()
            .filter_map(|((dir, stem), words)| {
                let path = format!("d{dir}/{stem}.txt");
                if !seen.insert(path.clone()) {
                    return None;
                }
                Some((path, words.join(" ")))
            })
            .collect()
    })
}

fn memfs_from(files: &[(String, String)]) -> MemFs {
    let fs = MemFs::new();
    for (path, body) in files {
        fs.add_file(&VPath::new(path.as_str()), body.clone().into_bytes()).unwrap();
    }
    fs
}

/// Brute-force reference: which file paths contain every one of `words`.
fn reference_and_query(files: &[(String, String)], words: &[&str]) -> BTreeSet<String> {
    files
        .iter()
        .filter(|(_, body)| {
            let terms: BTreeSet<&str> = body.split_whitespace().collect();
            words.iter().all(|w| terms.contains(w))
        })
        .map(|(path, _)| path.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every implementation × thread allocation builds the same index as a
    /// one-thread run of Implementation 1.
    #[test]
    fn implementations_agree_on_random_corpora(
        files in corpus_strategy(),
        x in 1usize..4,
        y in 0usize..3,
    ) {
        let fs = memfs_from(&files);
        let generator = IndexGenerator::default();
        let reference = generator
            .run(&fs, &VPath::root(), Implementation::SharedLocked, Configuration::new(1, 0, 0))
            .unwrap();
        let (reference_index, _) = reference.outcome.into_single_index();
        for implementation in Implementation::ALL {
            let z = usize::from(implementation.joins());
            let run = generator
                .run(&fs, &VPath::root(), implementation, Configuration::new(x, y, z))
                .unwrap();
            let (index, _) = run.outcome.into_single_index();
            prop_assert_eq!(&index, &reference_index, "{} ({}, {}, {})", implementation, x, y, z);
        }
    }

    /// AND queries agree with the brute-force reference model, and NOT
    /// queries remove exactly the documents containing the excluded word.
    #[test]
    fn query_evaluation_matches_reference_model(
        files in corpus_strategy(),
        needle_a in "(alpha|beta|gamma|delta|index|search)",
        needle_b in "(lock|join|core|disk|alpha|beta)",
    ) {
        let fs = memfs_from(&files);
        let run = IndexGenerator::default()
            .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 0))
            .unwrap();
        let (index, docs) = run.outcome.into_single_index();
        let searcher = Searcher::new([&index], &docs);

        // AND of two words.
        let expected = reference_and_query(&files, &[needle_a.as_str(), needle_b.as_str()]);
        let results = searcher.search(&Query::parse(&format!("{needle_a} {needle_b}")).unwrap());
        let got: BTreeSet<String> = results.hits().iter().map(|h| h.path.to_string()).collect();
        prop_assert_eq!(got, expected);

        // a NOT b = (docs with a) minus (docs with b).
        let with_a = reference_and_query(&files, &[needle_a.as_str()]);
        let with_b = reference_and_query(&files, &[needle_b.as_str()]);
        let expected_not: BTreeSet<String> = with_a.difference(&with_b).cloned().collect();
        if !expected_not.is_empty() || !with_a.is_empty() {
            let results = searcher.search(&Query::parse(&format!("{needle_a} NOT {needle_b}")).unwrap());
            let got: BTreeSet<String> = results.hits().iter().map(|h| h.path.to_string()).collect();
            prop_assert_eq!(got, expected_not);
        }

        // A prefix query for the first two letters of `needle_a` finds at
        // least every document the exact query finds.
        let prefix = &needle_a[..2];
        let results = searcher.search(&Query::parse(&format!("{prefix}*")).unwrap());
        let got: BTreeSet<String> = results.hits().iter().map(|h| h.path.to_string()).collect();
        prop_assert!(with_a.is_subset(&got));
    }

    /// Pipeline output survives the binary segment round trip bit-exactly.
    #[test]
    fn pipeline_output_round_trips_through_segments(files in corpus_strategy()) {
        let fs = memfs_from(&files);
        let run = IndexGenerator::default()
            .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 0))
            .unwrap();
        let (index, docs) = run.outcome.into_single_index();
        let mut buf = Vec::new();
        write_segment(&index, &docs, std::io::Cursor::new(&mut buf)).unwrap();
        let (restored, restored_docs) = read_segment(&buf[..]).unwrap();
        prop_assert_eq!(&restored, &index);
        prop_assert_eq!(restored_docs.len(), docs.len());
        for (id, path) in docs.iter() {
            prop_assert_eq!(restored_docs.path(id), Some(path));
        }
    }

    /// Incrementally updating a store through an arbitrary sequence of
    /// mutations — in two rounds, an update after each — ends in what the
    /// paper's pipeline builds from scratch over the final tree: by path, the
    /// same postings with the same frequencies, the same document lengths and
    /// the same ranked answers, whichever implementation and however many
    /// extractors ran the updates.
    #[test]
    fn incremental_update_equals_rebuild_after_random_mutations(
        initial in corpus_strategy(),
        mutations in proptest::collection::vec(
            (0usize..12, proptest::option::of(proptest::collection::vec(
                "(alpha|beta|gamma|delta|fresh|новое)?(index|search|lock|join)", 1..10))),
            0..8,
        ),
        implementation in 0usize..3,
        extractors in 1usize..4,
    ) {
        let implementation = Implementation::ALL[implementation];
        let fs = memfs_from(&initial);
        let dir = TempDir::new("incremental");
        let generator = IndexGenerator::default();
        let configuration = Configuration::new(extractors, 0, usize::from(implementation.joins()));
        let update = || {
            let mut store = IndexStore::open(dir.path().join("store")).unwrap();
            generator
                .update_store(&fs, &VPath::root(), &mut store, implementation, configuration)
                .unwrap()
        };
        let first = update();
        prop_assert_eq!(first.changes.added.len(), initial.len());

        // Apply mutations: delete the chosen file, rewrite it (or bring it
        // back), or write one of a few new ones.
        let paths: Vec<&str> = initial.iter().map(|(p, _)| p.as_str()).collect();
        let (early, late) = mutations.split_at(mutations.len() / 2);
        for round in [early, late] {
            for (slot, rewrite) in round {
                let existing = VPath::new(paths[slot % paths.len()]);
                match rewrite {
                    None => {
                        let _ = fs.remove_file(&existing);
                    }
                    Some(words) => {
                        let path =
                            if *slot < 6 { existing } else { VPath::new(format!("mut/m{slot}.txt")) };
                        let _ = fs.remove_file(&path);
                        fs.add_file(&path, words.join(" ").into_bytes()).unwrap();
                    }
                }
            }
            let report = update();
            prop_assert!(report.run.stage2.files <= round.len() as u64);
        }

        // Rebuild from scratch over the final tree.
        let run = generator
            .run(&fs, &VPath::root(), Implementation::SharedLocked, Configuration::new(1, 0, 0))
            .unwrap();
        let mut fresh = IndexStore::open(dir.path().join("fresh")).unwrap();
        fresh.replace_with(run.outcome.replicas(), run.outcome.docs()).unwrap();

        let store = IndexStore::open(dir.path().join("store")).unwrap();
        prop_assert_eq!(store.segment_count(), 1);
        let queries = [
            "alpha OR beta",
            "index AND search",
            "lock OR join OR core OR disk",
            "gamma AND delta",
            "alphaindex OR freshsearch OR новоеlock OR index",
        ];
        prop_assert_eq!(said(&store, &queries), said(&fresh, &queries));
    }
}
