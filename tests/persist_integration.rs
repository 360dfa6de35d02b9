//! Integration tests spanning the parallel pipeline, the on-disk store and
//! the incremental update: the state a desktop-search engine keeps
//! between runs must reproduce exactly what a fresh run would build.

mod common;

use std::fs;
use std::time::Duration;

use common::{frequent_queries, said, TempDir};
use dsearch::core::{
    BuildOptions, BuildPipeline, Configuration, Implementation, IncrementalRun, IndexGenerator,
    IndexOutcome,
};
use dsearch::corpus::{materialize_to_memfs, CorpusSpec};
use dsearch::index::varint::{write_bytes, write_varint};
use dsearch::index::{DocTable, FileId, InMemoryIndex, SealedShard, BLOCK_SIZE};
use dsearch::persist::checksum::xxh64;
use dsearch::persist::segment::{
    read_segment, read_segment_sealed, write_segment, SEGMENT_MAGIC, SEGMENT_VERSION,
};
use dsearch::persist::{IndexStore, PersistError, SignatureDb};
use dsearch::query::{Query, Searcher};
use dsearch::server::IndexSnapshot;
use dsearch::text::Term;
use dsearch::vfs::{FileSystem, MemFs, VPath};

#[test]
fn pipeline_output_survives_a_store_round_trip() {
    let (fs, _) = materialize_to_memfs(&CorpusSpec::tiny(), 99);
    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(3, 0, 1))
        .unwrap();
    let (index, docs) = run.outcome.into_single_index();

    let dir = TempDir::new("roundtrip");
    let mut store = IndexStore::open(dir.path().join("store")).unwrap();
    let info = store.commit(&index, &docs).unwrap();
    assert_eq!(info.doc_count, docs.len() as u64);

    // Re-open the store as a new process would and compare.
    let store = IndexStore::open(dir.path().join("store")).unwrap();
    let (restored, restored_docs) = store.load_segment(0).unwrap();
    assert_eq!(restored, index);
    assert_eq!(restored_docs.len(), docs.len());

    // Queries answered from the restored index match the in-memory one.
    let live = Searcher::new([&index], &docs);
    let persisted = Searcher::new([&restored], &restored_docs);
    let mut checked = 0;
    for (term, _) in index.iter().take(20) {
        let q = Query::all_of([term.clone()]);
        assert_eq!(live.search(&q), persisted.search(&q), "term {term}");
        checked += 1;
    }
    assert!(checked > 0);
}

#[test]
fn implementation3_replicas_stored_as_segments_join_to_the_same_index() {
    let (fs, _) = materialize_to_memfs(&CorpusSpec::tiny(), 123);
    let generator = IndexGenerator::default();
    let replicated = generator
        .run(&fs, &VPath::root(), Implementation::ReplicateNoJoin, Configuration::new(4, 0, 0))
        .unwrap();
    let reference = generator
        .run(&fs, &VPath::root(), Implementation::SharedLocked, Configuration::new(2, 0, 0))
        .unwrap();
    let (reference_index, reference_docs) = reference.outcome.into_single_index();

    let dir = TempDir::new("replicas");
    let mut store = IndexStore::open(dir.path().join("store")).unwrap();
    let IndexOutcome::Replicas { set, docs } = &replicated.outcome else {
        panic!("Implementation 3 must keep replicas");
    };
    assert_eq!(set.replica_count(), 4);
    store.commit_all(set.replicas(), docs).unwrap();

    // The replicas are merged as they are sealed: one segment, the index
    // "Join Forces" would have built — and the file it would have stored.
    assert_eq!(store.segment_count(), 1);
    let (merged, _) = store.load_segment(0).unwrap();
    assert_eq!(merged, reference_index);
    let mut joined = IndexStore::open(dir.path().join("joined")).unwrap();
    joined.commit(&reference_index, &reference_docs).unwrap();
    let segment = |store: &IndexStore| {
        fs::read(store.root().join(&store.manifest().segments[0].file_name)).unwrap()
    };
    assert_eq!(segment(&store), segment(&joined));
}

/// Ranked answers — hits, order, scores to the bit — are the corpus's, not
/// the indexing machine's: each shard scores BM25 against its own document
/// count and average length, so a store of one segment per extractor ranked
/// differently for every thread count.
#[test]
fn ranked_answers_do_not_depend_on_how_many_threads_indexed() {
    let (fs, _) = materialize_to_memfs(&CorpusSpec::tiny(), 7);
    let dir = TempDir::new("ranking");
    let snapshots: Vec<IndexSnapshot> = [1, 2, 4]
        .into_iter()
        .map(|extractors| {
            let run = IndexGenerator::default()
                .run(
                    &fs,
                    &VPath::root(),
                    Implementation::ReplicateNoJoin,
                    Configuration::new(extractors, 0, 0),
                )
                .unwrap();
            assert_eq!(run.outcome.replica_count(), extractors);
            let mut store = IndexStore::open(dir.path().join(format!("x{extractors}"))).unwrap();
            store.replace_with(run.outcome.replicas(), run.outcome.docs()).unwrap();
            IndexSnapshot::load(&store, 1).unwrap()
        })
        .collect();

    // The most frequent terms alone, and each with its neighbour in an OR.
    let mut by_frequency: Vec<(usize, Term)> = {
        let (index, _) = IndexStore::open(dir.path().join("x1")).unwrap().load_segment(0).unwrap();
        index.iter().map(|(term, list)| (list.len(), term.clone())).collect()
    };
    by_frequency.sort_by(|a, b| b.cmp(a));
    let terms: Vec<Term> = by_frequency.into_iter().take(12).map(|(_, term)| term).collect();
    let queries = terms
        .iter()
        .map(|term| Query::any_of([term.clone()]))
        .chain(terms.windows(2).map(|pair| Query::any_of(pair.to_vec())));
    let mut ranked = 0;
    for query in queries {
        let answers: Vec<Vec<(String, u32)>> = snapshots
            .iter()
            .map(|snapshot| {
                let (results, _) = snapshot.search_topk(&query, 10, &|| false).unwrap();
                results
                    .hits()
                    .iter()
                    .map(|hit| (hit.path.to_string(), hit.score.to_bits()))
                    .collect()
            })
            .collect();
        assert!(answers[0].len() > 1, "{query:?} ranks nothing");
        assert_eq!(answers[1], answers[0], "{query:?}: 2 extractors");
        assert_eq!(answers[2], answers[0], "{query:?}: 4 extractors");
        ranked += 1;
    }
    assert_eq!(ranked, 23);
}

/// The writer as it was before it streamed: seal the whole index into a
/// `SealedShard`, serialise the whole payload into one buffer, checksum it,
/// then emit header and payload.  Kept as the reference the streaming
/// `write_segment` must match byte for byte: the version-7 layout spelled out
/// a second time, part by part, over the parts a `CompressedView` hands out
/// — and, stamped with another version, as the writer of the files this
/// build no longer reads.
fn seal_then_serialise(
    index: &InMemoryIndex,
    docs: &DocTable,
    version: u32,
    checksum: fn(&[u8]) -> u64,
) -> Vec<u8> {
    let mut payload: Vec<u8> = Vec::new();
    write_varint(&mut payload, u64::from(version));
    write_varint(&mut payload, docs.len() as u64);
    // Front-coded paths: the bytes shared with the path before, then the rest.
    let mut previous = "";
    for (_, path) in docs.iter() {
        let shared = (0..=previous.len().min(path.len()))
            .rev()
            .find(|&n| previous.as_bytes()[..n] == path.as_bytes()[..n])
            .unwrap();
        write_varint(&mut payload, shared as u64);
        write_bytes(&mut payload, &path.as_bytes()[shared..]);
        previous = path;
    }
    let mut doc_lens: Vec<(FileId, u32)> = index.doc_lens().collect();
    doc_lens.sort_unstable_by_key(|&(id, _)| id);
    write_varint(&mut payload, doc_lens.len() as u64);
    // Ids as gaps from the id before (the first from 0).
    let ids = doc_lens.iter().map(|&(id, _)| id.as_u32());
    for (&(id, len), before) in doc_lens.iter().zip(std::iter::once(0).chain(ids)) {
        write_varint(&mut payload, u64::from(id.as_u32() - before));
        write_varint(&mut payload, u64::from(len));
    }
    let shard = SealedShard::from_index(index);
    write_varint(&mut payload, shard.term_count() as u64);
    for (term, compressed) in shard.iter() {
        write_bytes(&mut payload, term.as_bytes());
        write_varint(&mut payload, compressed.len() as u64);
        // One bound byte a list, and no bounds per block.
        assert!(compressed.bound() > 0);
        payload.push(compressed.bound());
        // Skip entries: last ids and offsets as deltas, the first offset (0)
        // left out; a block's first id lives in the payload only, after the
        // list's first block as a gap less one from the last id before it.
        let skips = compressed.skips();
        let mut ids = Vec::new();
        compressed.decode_into(&mut ids);
        for (i, skip) in skips.iter().enumerate() {
            let before = i.checked_sub(1).map(|i| skips[i]);
            let last_before = before.map_or(0, |b| b.last.as_u32());
            write_varint(&mut payload, u64::from(skip.last.as_u32() - last_before));
            if let Some(before) = before {
                write_varint(&mut payload, u64::from(skip.offset - before.offset));
            }
            let first_id = ids[i * BLOCK_SIZE].as_u32();
            let stored = if before.is_some() { first_id - last_before - 1 } else { first_id };
            let mut first = Vec::new();
            write_varint(&mut first, u64::from(stored));
            assert!(compressed.data()[skip.offset as usize..].starts_with(&first));
        }
        write_bytes(&mut payload, compressed.data());
        write_bytes(&mut payload, compressed.freqs());
        for offset in compressed.freq_offsets().windows(2) {
            write_varint(&mut payload, u64::from(offset[1] - offset[0]));
        }
    }
    let mut bytes = SEGMENT_MAGIC.to_vec();
    bytes.extend_from_slice(&checksum(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

#[test]
fn streamed_segments_are_the_bytes_of_seal_then_serialise() {
    let (fs, _) = materialize_to_memfs(&CorpusSpec::tiny(), 13);
    for implementation in Implementation::ALL {
        for extractors in 1..=3 {
            let join_threads = usize::from(implementation.joins());
            let run = IndexGenerator::default()
                .run(
                    &fs,
                    &VPath::root(),
                    implementation,
                    Configuration::new(extractors, 0, join_threads),
                )
                .unwrap();
            let (indices, docs) = match run.outcome {
                IndexOutcome::Replicas { set, docs } => (set.into_replicas(), docs),
                single => {
                    let (index, docs) = single.into_single_index();
                    (vec![index], docs)
                }
            };
            assert!(indices.iter().any(|index| index.posting_count() > 0));
            for index in &indices {
                let mut written = Vec::new();
                let info = write_segment(index, &docs, std::io::Cursor::new(&mut written)).unwrap();
                assert_eq!(info.bytes, written.len() as u64);
                assert_eq!(info.posting_count, index.posting_count());
                assert!(
                    written == seal_then_serialise(index, &docs, SEGMENT_VERSION, xxh64),
                    "{implementation:?} x{extractors}: streamed segment differs from the reference"
                );
                // There is one readable version: the same payload stamped 6,
                // 5 or 4 (under this build's checksum) or 3 (under the FNV-1a
                // of versions 1–3) is refused by its version, by both
                // readers, before its checksum is looked at.
                let fnv1a: fn(&[u8]) -> u64 = dsearch::text::fnv1a_64;
                let xxh64: fn(&[u8]) -> u64 = xxh64;
                for (version, checksum) in [(6, xxh64), (5, xxh64), (4, xxh64), (3, fnv1a)] {
                    let old = seal_then_serialise(index, &docs, version, checksum);
                    assert_eq!((old[12], written[12]), (version as u8, 7));
                    for err in [read_segment(&old[..]).err(), read_segment_sealed(&old[..]).err()] {
                        assert!(
                            matches!(err, Some(PersistError::UnsupportedVersion { found, .. }) if found == version),
                            "{err:?}"
                        );
                    }
                }
                // Implementation 3's partial replicas included: a loaded
                // shard scores against the documents its replica indexed,
                // not against the whole run's doc table.
                let (shard, _) = read_segment_sealed(&written[..]).unwrap();
                assert!(
                    shard == SealedShard::from_index(index),
                    "{implementation:?} x{extractors}"
                );
            }
        }
    }
}

/// BM25's document count is the number of documents with a recorded length
/// (README "Ranked retrieval").  An en-bloc insert records one for a file
/// without terms, so every store `dsearch index` writes counts such files;
/// an index built one occurrence at a time, each file counted through
/// `note_file_done`, does not, and there the count falls below
/// `file_count()` — consistently, in memory and across
/// `read_segment` → `write_segment`, so scores and bounds never drift.
#[test]
fn the_scored_document_count_survives_a_read_and_recommit() {
    let mut docs = DocTable::new();
    let ids: Vec<FileId> = (0..3).map(|i| docs.insert(format!("f{i}.txt"))).collect();
    let words = |file: usize| if file == 1 { vec![] } else { vec!["alpha", "beta"] };

    let mut en_bloc = InMemoryIndex::new();
    let mut per_occurrence = InMemoryIndex::new();
    for (file, &id) in ids.iter().enumerate() {
        en_bloc.insert_file_counted(id, words(file).into_iter().map(|w| (Term::from(w), 2u32)));
        for w in words(file) {
            per_occurrence.insert_occurrences(id, Term::from(w), 1);
        }
        per_occurrence.note_file_done();
    }
    assert_eq!((en_bloc.file_count(), per_occurrence.file_count()), (3, 3));

    for (index, scored) in [(&en_bloc, 3), (&per_occurrence, 2)] {
        let sealed = SealedShard::from_index(index);
        assert_eq!(sealed.file_count(), scored);
        let mut written = Vec::new();
        write_segment(index, &docs, std::io::Cursor::new(&mut written)).unwrap();
        assert!(read_segment_sealed(&written[..]).unwrap().0 == sealed);
        // Load mutably, commit again: the same bytes, so the same idf, the
        // same norms and the same list bounds.
        let (restored, restored_docs) = read_segment(&written[..]).unwrap();
        assert_eq!(restored.file_count(), scored);
        let mut rewritten = Vec::new();
        write_segment(&restored, &restored_docs, std::io::Cursor::new(&mut rewritten)).unwrap();
        assert!(rewritten == written, "a recommit changed the segment");
    }
}

/// One incremental update of the store at `dir` from `fs`.
fn update<F: FileSystem>(
    fs: &F,
    dir: &std::path::Path,
    implementation: Implementation,
    extractors: usize,
) -> IncrementalRun {
    let mut store = IndexStore::open(dir).unwrap();
    let configuration = Configuration::new(extractors, 0, usize::from(implementation.joins()));
    IndexGenerator::default()
        .update_store(fs, &VPath::root(), &mut store, implementation, configuration)
        .unwrap()
}

/// Files added, modified, removed, unchanged.
fn counts(report: &IncrementalRun) -> (usize, usize, usize, u64) {
    let changes = &report.changes;
    (changes.added.len(), changes.modified.len(), changes.removed.len(), changes.unchanged)
}

/// The oracle: the paper's pipeline over the tree as it stands, stored.
fn rebuild<F: FileSystem>(fs: &F, dir: &std::path::Path) -> IndexStore {
    let run = IndexGenerator::default()
        .run(fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 1))
        .unwrap();
    let mut store = IndexStore::open(dir).unwrap();
    store.replace_with(run.outcome.replicas(), run.outcome.docs()).unwrap();
    store
}

#[test]
fn incremental_update_matches_a_full_rebuild_on_a_mutated_corpus() {
    for implementation in Implementation::ALL {
        // Start from a generated corpus in memory.
        let (fs, manifest) = materialize_to_memfs(&CorpusSpec::tiny(), 7);
        let paths = manifest.paths();
        let dir = TempDir::new("incremental");
        let first = update(&fs, &dir.path().join("store"), implementation, 2);
        let files = manifest.file_count() as usize;
        assert_eq!(counts(&first), (files, 0, 0, 0));

        // Mutate the corpus: delete a few files, rewrite one, add new ones.
        fs.remove_file(&paths[0]).unwrap();
        fs.remove_file(&paths[3]).unwrap();
        fs.remove_file(&paths[5]).unwrap();
        fs.add_file(&paths[5], b"completely rewritten contents about tuning tuning".to_vec())
            .unwrap();
        fs.add_file(&VPath::new("extra/new_one.txt"), b"freshly added document".to_vec()).unwrap();
        fs.add_file(
            &VPath::new("extra/new_two.txt"),
            b"another new file with unique wording".to_vec(),
        )
        .unwrap();

        let second = update(&fs, &dir.path().join("store"), implementation, 3);
        assert_eq!(counts(&second), (2, 1, 2, files as u64 - 3));
        assert_eq!(second.run.stage2.files, 3, "only the changed files are extracted");
        assert!(second.rescan_ratio() < 0.25, "most files must not be re-scanned");

        // A full rebuild over the final tree says the same by path (doc ids
        // differ): postings with their frequencies, lengths, ranked answers.
        let store = IndexStore::open(dir.path().join("store")).unwrap();
        assert_eq!(store.segment_count(), 1);
        let full = rebuild(&fs, &dir.path().join("full"));
        let mut queries = frequent_queries(&full);
        queries.push("tuning OR freshly OR wording".to_owned());
        let incremental = said(&store, &queries);
        assert_eq!(incremental, said(&full, &queries));
        assert_eq!(incremental.postings[&("tuning".to_owned(), paths[5].as_str().to_owned())], 2);
        assert!(incremental.ranked.iter().all(|hits| hits.len() > 1), "{:?}", incremental.ranked);
    }
}

/// The case the old API could not reach: a store of several segments, as a
/// checkpointed `dsearch build` leaves it, updated incrementally, ends as one
/// segment that says what a full rebuild says.
#[test]
fn incremental_update_of_a_multi_segment_build_ends_as_one_segment() {
    let (fs, manifest) = materialize_to_memfs(&CorpusSpec::tiny(), 21);
    let dir = TempDir::new("multi-segment");
    let store_dir = dir.path().join("store");
    let options =
        BuildOptions { extractors: 2, checkpoint_every: Duration::ZERO, ..BuildOptions::default() };
    let report = BuildPipeline::new(options).build(&fs, &VPath::root(), &store_dir).unwrap();
    assert!(report.complete && report.segments > 1, "{} segment(s)", report.segments);

    let paths = manifest.paths();
    fs.remove_file(&paths[1]).unwrap();
    fs.remove_file(&paths[2]).unwrap();
    fs.add_file(&paths[2], b"the rewritten one of the two".to_vec()).unwrap();
    fs.add_file(&VPath::new("extra/new.txt"), b"a new document in the index".to_vec()).unwrap();

    // The build left no signatures: everything is extracted once, under the
    // ids the build's table gave — and the file that went is not kept.
    let first = update(&fs, &store_dir, Implementation::ReplicateNoJoin, 2);
    let files = manifest.file_count() as usize;
    assert_eq!(counts(&first), (files, 0, 0, 0));
    let store = IndexStore::open(&store_dir).unwrap();
    assert_eq!(store.segment_count(), 1);
    let full = rebuild(&fs, &dir.path().join("full"));
    let queries = frequent_queries(&full);
    assert_eq!(said(&store, &queries), said(&full, &queries));

    // From here on it is an ordinary incremental store.
    fs.remove_file(&paths[4]).unwrap();
    let second = update(&fs, &store_dir, Implementation::SharedLocked, 1);
    assert_eq!(counts(&second), (0, 0, 1, files as u64 - 1));
    let store = IndexStore::open(&store_dir).unwrap();
    let full = rebuild(&fs, &dir.path().join("full"));
    let queries = frequent_queries(&full);
    assert_eq!(said(&store, &queries), said(&full, &queries));
}

#[test]
fn signature_db_and_store_survive_process_restart_on_disk() {
    // Simulate two separate runs of an application sharing only the disk.
    let dir = TempDir::new("restart");
    let docs_dir = dir.path().join("docs");
    fs::create_dir_all(&docs_dir).unwrap();
    fs::write(docs_dir.join("a.txt"), "alpha beta").unwrap();
    fs::write(docs_dir.join("b.txt"), "beta gamma").unwrap();
    let store_dir = dir.path().join("store");

    {
        let fs_view = dsearch::vfs::OsFs::new(&docs_dir);
        let report = update(&fs_view, &store_dir, Implementation::ReplicateNoJoin, 2);
        assert_eq!(counts(&report), (2, 0, 0, 0));
    }
    assert_eq!(SignatureDb::load(&store_dir).unwrap().len(), 2);

    // "Second process": change one file; everything else comes from disk.
    fs::write(docs_dir.join("a.txt"), "alpha delta").unwrap();
    {
        let fs_view = dsearch::vfs::OsFs::new(&docs_dir);
        let report = update(&fs_view, &store_dir, Implementation::ReplicateNoJoin, 2);
        assert_eq!(counts(&report), (0, 1, 0, 1));
        assert_eq!(report.run.stage2.files, 1);
    }

    let store = IndexStore::open(&store_dir).unwrap();
    let (index, docs) = store.load_segment(0).unwrap();
    let searcher = Searcher::new([&index], &docs);
    assert_eq!(searcher.search(&Query::parse("delta").unwrap()).len(), 1);
    assert!(searcher.search(&Query::parse("beta").unwrap()).len() == 1);
    let fs_view = dsearch::vfs::OsFs::new(&docs_dir);
    let queries = ["alpha OR beta", "beta AND gamma", "delta"];
    assert_eq!(
        said(&store, &queries),
        said(&rebuild(&fs_view, &dir.path().join("full")), &queries)
    );
}

#[test]
fn empty_memfs_corpus_is_handled_gracefully() {
    let fs = MemFs::new();
    fs.add_dir(&VPath::new("empty/nested")).unwrap();
    let dir = TempDir::new("empty");
    let report = update(&fs, &dir.path().join("store"), Implementation::ReplicateNoJoin, 2);
    assert_eq!(counts(&report), (0, 0, 0, 0));
    assert_eq!(report.run.outcome.file_count(), 0);

    let store = IndexStore::open(dir.path().join("store")).unwrap();
    assert_eq!(store.segment_count(), 1);
    let (restored, _) = store.load_segment(0).unwrap();
    assert!(restored.is_empty());
}
