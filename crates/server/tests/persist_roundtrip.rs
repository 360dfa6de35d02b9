//! Persist → serve roundtrip: an index built by the real pipeline, written
//! with `write_segment`, opened through `IndexStore` and loaded into an
//! `IndexSnapshot` must answer every query exactly as a naive oracle over the
//! same corpus says it should.

use std::fs;
use std::path::PathBuf;

use dsearch_core::{Configuration, Implementation, IndexGenerator};
use dsearch_corpus::{materialize_to_memfs, CorpusSpec};
use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_persist::segment::{read_segment, write_segment};
use dsearch_persist::IndexStore;
use dsearch_query::Query;
use dsearch_server::IndexSnapshot;
use dsearch_text::Term;
use dsearch_vfs::VPath;
use proptest::prelude::*;

#[path = "../../query/tests/support/oracle.rs"]
mod oracle;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir()
            .join(format!("dsearch-persist-roundtrip-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn snapshot_from_store_matches_in_memory_searcher() {
    // A real (tiny) corpus through the real parallel pipeline.
    let (fs, _manifest) = materialize_to_memfs(&CorpusSpec::tiny(), 42);
    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 0))
        .unwrap();
    let (index, docs) = run.outcome.into_single_index();

    // write_segment → byte-exact read back.
    let mut buffer = Vec::new();
    write_segment(&index, &docs, std::io::Cursor::new(&mut buffer)).unwrap();
    let (restored, restored_docs) = read_segment(&buffer[..]).unwrap();
    assert_eq!(restored, index);
    assert_eq!(restored_docs.len(), docs.len());

    // Same bytes through the store layout, loaded as a serving snapshot.
    let dir = TempDir::new("match");
    let store_dir = dir.0.join("store");
    let mut store = IndexStore::open(&store_dir).unwrap();
    store.commit(&index, &docs).unwrap();
    let store = IndexStore::open(&store_dir).unwrap();
    let snapshot = IndexSnapshot::load(&store, 1).unwrap();
    assert_eq!(snapshot.shard_count(), 1);
    assert_eq!(snapshot.doc_count(), docs.len());

    // Derive queries from the indexed terms themselves so the comparison
    // covers hits, multi-term intersections, exclusions and prefixes.
    let mut words: std::collections::BTreeMap<_, Vec<&str>> = Default::default();
    for (term, postings) in index.iter() {
        postings.iter().for_each(|id| words.entry(id).or_default().push(term.as_str()));
    }
    let mut reference = oracle::Oracle::default();
    for (id, words) in words {
        reference.add(id, docs.path(id).unwrap(), words);
    }
    let mut terms: Vec<String> = index.iter().map(|(t, _)| t.as_str().to_owned()).collect();
    terms.sort();
    let mut checked = 0;
    for (i, term) in terms.iter().enumerate().step_by(7) {
        let other = &terms[(i * 3 + 11) % terms.len()];
        let prefix: String = term.chars().take(2).collect();
        for raw in [
            term.clone(),
            format!("{term} {other}"),
            format!("{term} OR {other}"),
            format!("{term} NOT {other}"),
            format!("{prefix}*"),
        ] {
            let Ok(query) = Query::parse(&raw) else { continue };
            let got: Vec<_> = snapshot
                .search(&query)
                .into_iter()
                .map(|hit| (hit.file_id, hit.path.to_string(), hit.matched_terms))
                .collect();
            let expected: Vec<_> = reference
                .search(&query)
                .into_iter()
                .map(|hit| (hit.id, hit.path, hit.best_group))
                .collect();
            assert_eq!(got, expected, "snapshot and oracle disagree on {raw:?}");
            checked += 1;
        }
    }
    assert!(checked >= 50, "too few queries exercised: {checked}");

    // The disk-loaded snapshot was lifted decode-free into the same sealed
    // form that sealing the in-memory index produces: byte-identical
    // compressed postings, and a real compression win on a real corpus.
    let from_memory = IndexSnapshot::from_index(index, docs, 1);
    assert_eq!(snapshot.posting_count(), from_memory.posting_count());
    assert_eq!(snapshot.posting_bytes(), from_memory.posting_bytes());
    assert!(
        snapshot.posting_bytes() * 2 <= snapshot.uncompressed_posting_bytes(),
        "expected >= 2x posting compression on the corpus, got {} vs {}",
        snapshot.posting_bytes(),
        snapshot.uncompressed_posting_bytes()
    );
}

proptest! {
    /// persist → load → serve answers exactly like serving the in-memory
    /// index directly, for arbitrary little corpora: the compressed on-disk
    /// form and the sealed in-memory form are interchangeable.
    #[test]
    fn persisted_and_in_memory_snapshots_agree(
        corpus in proptest::collection::vec(
            proptest::collection::vec("[a-d]{1,4}", 1..8), 1..25),
        seed in 0u32..1000,
    ) {
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for (i, words) in corpus.iter().enumerate() {
            let id = docs.insert(format!("doc{i}.txt"));
            let mut uniq = words.clone();
            uniq.sort();
            uniq.dedup();
            index.insert_file(id, uniq.iter().map(|w| Term::from(w.as_str())));
        }
        let dir = TempDir::new(&format!("prop-{seed}-{}", corpus.len()));
        let mut store = IndexStore::open(dir.0.join("store")).unwrap();
        store.commit(&index, &docs).unwrap();

        let loaded = IndexSnapshot::load(&store, 1).unwrap();
        let in_memory = IndexSnapshot::from_index(index, docs, 1);
        prop_assert_eq!(loaded.posting_count(), in_memory.posting_count());
        prop_assert_eq!(loaded.posting_bytes(), in_memory.posting_bytes());

        for raw in [
            "a", "b", "ab", "a b", "a OR b", "a NOT b", "a*", "ab*", "c d", "d*", "a b OR c",
        ] {
            let query = Query::parse(raw).unwrap();
            prop_assert_eq!(
                loaded.search(&query),
                in_memory.search(&query),
                "loaded and in-memory snapshots disagree on {:?}", raw
            );
        }
        // The dictionaries agree too, term by term with their frequencies.
        prop_assert_eq!(loaded.terms().collect::<Vec<_>>(), in_memory.terms().collect::<Vec<_>>());
    }

    /// Loading a store's segments concurrently is loading them one by one:
    /// the same shards in manifest order, the same doc table, the same
    /// answers.  And when one segment is cut short the load fails as a
    /// whole, naming that segment's file.
    #[test]
    fn concurrent_load_equals_loading_the_segments_one_by_one(
        segments in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec("[a-d]{1,3}", 0..6), 0..8),
            1..7,
        ),
        victim in 0usize..6,
        seed in 0u32..1000,
    ) {
        // Each segment is committed with the doc table as it stood then, so
        // later segments carry longer tables (the image keeps the longest).
        let dir = TempDir::new(&format!("concurrent-{seed}-{}", segments.len()));
        let mut store = IndexStore::open(dir.0.join("store")).unwrap();
        let mut docs = DocTable::new();
        for files in &segments {
            let mut index = InMemoryIndex::new();
            for words in files {
                let id = docs.insert(format!("doc{}.txt", docs.len()));
                let mut uniq = words.clone();
                uniq.sort();
                uniq.dedup();
                index.insert_file(id, uniq.iter().map(|w| Term::from(w.as_str())));
            }
            store.commit(&index, &docs).unwrap();
        }

        let loaded = IndexSnapshot::load(&store, 1).unwrap();
        let mut reference_docs = DocTable::new();
        let mut shards = Vec::new();
        for position in 0..store.segment_count() {
            let (shard, segment_docs) = store.load_segment_sealed(position).unwrap();
            if segment_docs.len() > reference_docs.len() {
                reference_docs = segment_docs;
            }
            shards.push(shard);
        }
        let reference = IndexSnapshot::from_sealed(shards, reference_docs, 1);
        prop_assert_eq!(loaded.shard_count(), segments.len());
        prop_assert_eq!(loaded.docs(), reference.docs());
        prop_assert_eq!(loaded.docs(), &docs);
        // Term by term in shard order: a permuted load would differ here.
        prop_assert_eq!(loaded.terms().collect::<Vec<_>>(), reference.terms().collect::<Vec<_>>());
        prop_assert_eq!(loaded.resident_bytes(), reference.resident_bytes());
        for raw in ["a", "b", "ab", "a b", "a OR b", "a NOT b", "a*", "c d", "d*", "a b OR c"] {
            let query = Query::parse(raw).unwrap();
            prop_assert_eq!(loaded.search(&query), reference.search(&query), "{:?}", raw);
            let ranked = |snapshot: &IndexSnapshot| {
                snapshot.search_topk(&query, 5, &|| false).map(|(results, _)| results)
            };
            prop_assert_eq!(ranked(&loaded), ranked(&reference), "top-5 of {:?}", raw);
        }

        let victim = &store.manifest().segments[victim % segments.len()].file_name;
        let path = store.root().join(victim);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        match IndexSnapshot::load(&store, 2) {
            Err(dsearch_persist::PersistError::Segment { file_name, .. }) => {
                prop_assert_eq!(&file_name, victim);
            }
            other => prop_assert!(false, "expected an error naming {}: {:?}", victim, other.err()),
        }
    }

    /// Pruning stays invisible on Implementation 3's store — two un-joined
    /// replicas, each a partial index under the whole run's doc table —
    /// loaded from disk: the persisted bounds were sealed with the norms of
    /// each replica's own lengths, and the loaded shard must score with the
    /// same ones or pruning stops being admissible.
    #[test]
    fn pruned_topk_equals_exhaustive_on_a_two_replica_store_from_disk(
        tfs in proptest::collection::vec((0u32..6, 0u32..4, 0u32..9), 260..420),
        k in 1usize..12,
        seed in 0u32..1000,
    ) {
        let mut docs = DocTable::new();
        let mut replicas = vec![InMemoryIndex::new(), InMemoryIndex::new()];
        for (i, &(common, mid, rare)) in tfs.iter().enumerate() {
            let id = docs.insert(format!("doc{i:04}.txt"));
            let mut terms = vec![(Term::from("common"), 1 + common)];
            if mid > 0 {
                terms.push((Term::from("mid"), mid));
            }
            if rare > 6 {
                terms.push((Term::from("rare"), rare));
            }
            // Uneven split: the replicas disagree on document count, and
            // both disagree with the doc table.
            replicas[usize::from(i % 3 == 0)].insert_file_counted(id, terms);
        }
        let dir = TempDir::new(&format!("replicas-{seed}-{}", tfs.len()));
        let mut store = IndexStore::open(dir.0.join("store")).unwrap();
        for replica in &replicas {
            store.commit(replica, &docs).unwrap();
        }
        let loaded = IndexSnapshot::load(&store, 1).unwrap();
        prop_assert_eq!(loaded.shard_count(), 2);
        prop_assert_eq!(loaded.file_count(), tfs.len() as u64);
        let in_memory = IndexSnapshot::from_shards(replicas, docs, 1);
        let ranking = |results: &dsearch_query::SearchResults| -> Vec<(u32, String)> {
            results.hits().iter().map(|h| (h.score.to_bits(), h.path.to_string())).collect()
        };
        for raw in ["common", "common OR mid", "common OR rare", "common OR mid OR rare", "mid rare"] {
            let query = Query::parse(raw).unwrap();
            let (pruned, _) = loaded.search_topk(&query, k, &|| false).unwrap();
            let (full, _) = loaded.search_topk(&query, usize::MAX, &|| false).unwrap();
            let mut expected = ranking(&full);
            expected.truncate(k);
            prop_assert_eq!(ranking(&pruned), expected.clone(), "{:?} k={}", raw, k);
            let (sealed, _) = in_memory.search_topk(&query, k, &|| false).unwrap();
            prop_assert_eq!(ranking(&sealed), expected, "in-memory seal, {:?} k={}", raw, k);
        }
    }
}
