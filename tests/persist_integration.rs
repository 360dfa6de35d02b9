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
use dsearch::index::varint::write_varint;
use dsearch::index::{DocTable, FileId, InMemoryIndex, SealedShard, BLOCK_SIZE, SHORT_LIST_MIN};
use dsearch::persist::checksum::xxh64;
use dsearch::persist::segment::{
    read_segment, read_segment_sealed, write_docs, write_segment, DOCS_MAGIC, SEGMENT_MAGIC,
    SEGMENT_VERSION,
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
    let info = store.replace_with(std::slice::from_ref(&index), &docs).unwrap();
    assert_eq!(info.doc_count, docs.len() as u64);

    // Re-open the store as a new process would and compare.
    let store = IndexStore::open(dir.path().join("store")).unwrap();
    let (restored, restored_docs) = store.load_all().unwrap();
    assert_eq!(restored, std::slice::from_ref(&index));
    assert_eq!(restored_docs, docs);

    // Queries answered from the restored index match the in-memory one.
    let live = Searcher::new([&index], &docs);
    let persisted = Searcher::new(&restored, &restored_docs);
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
    store.replace_with(set.replicas(), docs).unwrap();

    // The replicas are merged as they are sealed: one segment, the index
    // "Join Forces" would have built — and the files it would have stored.
    assert_eq!(store.segment_count(), 1);
    let (merged, _) = store.load_all().unwrap();
    assert_eq!(merged, std::slice::from_ref(&reference_index));
    let mut joined = IndexStore::open(dir.path().join("joined")).unwrap();
    joined.replace_with(&[reference_index], &reference_docs).unwrap();
    let files = |store: &IndexStore| {
        let manifest = store.manifest();
        let names = [manifest.docs.as_ref().unwrap(), &manifest.segments[0]];
        names.map(|name| fs::read(store.root().join(name)).unwrap())
    };
    assert_eq!(files(&store), files(&joined));
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
        let (indexes, _) = IndexStore::open(dir.path().join("x1")).unwrap().load_all().unwrap();
        indexes[0].iter().map(|(term, list)| (list.len(), term.clone())).collect()
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

/// The doc file of `docs`, spelled out a second time: the reference
/// `write_docs` must match byte for byte.
fn serialise_docs(docs: &DocTable, version: u32) -> Vec<u8> {
    let mut payload: Vec<u8> = Vec::new();
    write_varint(&mut payload, u64::from(version));
    write_varint(&mut payload, docs.len() as u64);
    // In path order, each path as the longest start it shares with the path
    // before, then the longest end it shares with what is left of that one,
    // then the middle — the two shared counts as a varint and a head, the
    // head's nibbles the end's count and the middle's length (15: a varint
    // of the rest follows) —, each followed by its id.
    let mut by_path: Vec<(&str, FileId)> = docs.iter().map(|(id, path)| (path, id)).collect();
    by_path.sort_unstable();
    let mut previous: &[u8] = b"";
    for (path, id) in by_path {
        let path = path.as_bytes();
        let front = (0..=previous.len().min(path.len()))
            .rev()
            .find(|&n| previous[..n] == path[..n])
            .unwrap();
        let (rest_before, rest) = (&previous[front..], &path[front..]);
        let back = (0..=rest_before.len().min(rest.len()))
            .rev()
            .find(|&n| rest_before[rest_before.len() - n..] == rest[rest.len() - n..])
            .unwrap();
        let middle = &rest[..rest.len() - back];
        write_varint(&mut payload, front as u64);
        head(&mut payload, back, middle.len());
        payload.extend_from_slice(middle);
        write_varint(&mut payload, u64::from(id.as_u32()));
        previous = path;
    }
    let mut bytes = DOCS_MAGIC.to_vec();
    bytes.extend_from_slice(&xxh64(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

/// The writer as it was before it streamed: seal the whole index into a
/// `SealedShard`, serialise the whole payload into one buffer, checksum it,
/// then emit header and payload.  Kept as the reference the streaming
/// `write_segment` must match byte for byte: the version-12 layout spelled
/// out a second time, part by part, over the parts a `CompressedView` hands
/// out — and, stamped with another version, as the writer of the files this
/// build no longer reads.
fn seal_then_serialise(
    index: &InMemoryIndex,
    doc_count: usize,
    version: u32,
    checksum: fn(&[u8]) -> u64,
) -> Vec<u8> {
    let mut payload: Vec<u8> = Vec::new();
    write_varint(&mut payload, u64::from(version));
    write_varint(&mut payload, doc_count as u64);
    let mut doc_lens: Vec<(FileId, u32)> = index.doc_lens().collect();
    doc_lens.sort_unstable_by_key(|&(id, _)| id);
    write_varint(&mut payload, doc_lens.len() as u64);
    // Every document's length: the lengths alone, each as its step from the
    // one before (the first from 0), zigzag-coded (0, −1, 1, −2, … as 0, 1,
    // 2, 3, …).  Some documents': ids as gaps from the id before (the first
    // from 0) beside them, and the lengths whole.
    let every = doc_lens.len() == doc_count;
    let ids = doc_lens.iter().map(|&(id, _)| id.as_u32());
    let mut length_before = 0i64;
    for (&(id, len), before) in doc_lens.iter().zip(std::iter::once(0).chain(ids)) {
        if every {
            let step = i64::from(len) - length_before;
            let zigzag = if step < 0 { 2 * step.unsigned_abs() - 1 } else { 2 * step as u64 };
            write_varint(&mut payload, zigzag);
            length_before = i64::from(len);
        } else {
            write_varint(&mut payload, u64::from(id.as_u32() - before));
            write_varint(&mut payload, u64::from(len));
        }
    }
    let shard = SealedShard::from_index(index);
    write_varint(&mut payload, shard.term_count() as u64);
    // The id universe: one past the largest id of any list.
    let universe = index.iter().flat_map(|(_, list)| list.iter()).max().map_or(0, |id| id.0 + 1);
    write_varint(&mut payload, u64::from(universe));
    let mut previous = String::new();
    for (slot, (term, compressed)) in shard.iter().enumerate() {
        // Every 16th term whole; the others after the count of bytes they
        // share with the term before.
        let shared = match slot % 16 {
            0 => 0,
            _ => (0..=previous.len().min(term.len()))
                .rev()
                .find(|&n| previous.as_bytes()[..n] == term.as_bytes()[..n])
                .unwrap(),
        };
        head(&mut payload, shared, term.len() - shared);
        payload.extend_from_slice(&term.as_bytes()[shared..]);
        // The posting count, its low bit set when tf blocks follow.
        let tracked = !compressed.freqs().is_empty();
        write_varint(&mut payload, (compressed.len() as u64) << 1 | u64::from(tracked));
        // One bound byte a list, and no bounds per block.
        assert!(compressed.bound() > 0);
        payload.push(compressed.bound());
        let mut ids = Vec::new();
        compressed.decode_into(&mut ids);
        // A list of 6 to 128 postings: its stream's length, then the
        // stream.
        if (SHORT_LIST_MIN..=BLOCK_SIZE).contains(&ids.len()) {
            let mut tfs = Vec::new();
            compressed.decode_freqs_into(&mut tfs);
            let stream = short_stream(&ids, &tfs, u64::from(universe));
            write_varint(&mut payload, stream.len() as u64);
            payload.extend_from_slice(&stream);
            previous = term;
            continue;
        }
        // Skip entries: last ids as deltas and nothing else; a block's first
        // id lives in the id blocks only, after the list's first block as a
        // gap less one from the last id before it.
        let skips = compressed.skips();
        for (i, skip) in skips.iter().enumerate() {
            let last_before = i.checked_sub(1).map_or(0, |i| skips[i].last.as_u32());
            write_varint(&mut payload, u64::from(skip.last.as_u32() - last_before));
            let first_id = ids[i * BLOCK_SIZE].as_u32();
            let stored = if i > 0 { first_id - last_before - 1 } else { first_id };
            let mut first = Vec::new();
            write_varint(&mut first, u64::from(stored));
            assert!(compressed.data()[skip.offset as usize..].starts_with(&first));
        }
        // The id blocks, then the tf blocks, back to back: no lengths, no
        // offsets.
        payload.extend_from_slice(compressed.data());
        payload.extend_from_slice(compressed.freqs());
        previous = term;
    }
    let mut bytes = SEGMENT_MAGIC.to_vec();
    bytes.extend_from_slice(&checksum(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

/// The stream of a list of 6 to 128 postings, written bit by bit: the
/// ids by binary interpolative coding over `[0, universe)` — the middle id
/// of a run as its offset in the range it can lie in, then the run left of
/// it, then the run right of it; none for a run as long as its range — and,
/// when `tfs` is not empty, the count less one of the tfs above 1 below
/// the list's length, their positions coded as the ids are over the list,
/// and each one's tf less one in Elias-γ.  A value below a range is a
/// truncated binary code: `k = ⌊log₂ range⌋` bits, lowest first, for the
/// `2^(k+1) − range` smallest; the others as that many more, in `k` bits of
/// their top and one more.  Bits fill bytes lowest first.
fn short_stream(ids: &[FileId], tfs: &[u32], universe: u64) -> Vec<u8> {
    fn bits_of(bits: &mut Vec<bool>, value: u64, width: u32) {
        bits.extend((0..width).map(|bit| value >> bit & 1 == 1));
    }
    fn below(bits: &mut Vec<bool>, value: u64, range: u64) {
        if range > 1 {
            let k = 63 - range.leading_zeros();
            let short = (1 << (k + 1)) - range;
            if value < short {
                bits_of(bits, value, k);
            } else {
                bits_of(bits, (value + short) >> 1, k);
                bits_of(bits, (value + short) & 1, 1);
            }
        }
    }
    fn run(bits: &mut Vec<bool>, values: &[u64], low: u64, end: u64) {
        if values.is_empty() || end - low == values.len() as u64 {
            return;
        }
        let middle = values.len() / 2;
        let least = low + middle as u64;
        let most = end - (values.len() - middle) as u64;
        below(bits, values[middle] - least, most - least + 1);
        run(bits, &values[..middle], low, values[middle]);
        run(bits, &values[middle + 1..], values[middle] + 1, end);
    }
    let mut bits = Vec::new();
    let values: Vec<u64> = ids.iter().map(|id| u64::from(id.0)).collect();
    run(&mut bits, &values, 0, universe);
    let above: Vec<u64> = (0..tfs.len() as u64).filter(|&at| tfs[at as usize] > 1).collect();
    if !tfs.is_empty() {
        below(&mut bits, above.len() as u64 - 1, tfs.len() as u64);
        run(&mut bits, &above, 0, tfs.len() as u64);
        for &at in &above {
            let value = u64::from(tfs[at as usize] - 1);
            let top = 63 - value.leading_zeros();
            bits.extend((0..top).map(|_| false));
            bits.push(true);
            bits_of(&mut bits, value, top);
        }
    }
    bits.chunks(8)
        .map(|byte| byte.iter().rev().fold(0u8, |acc, &bit| acc << 1 | u8::from(bit)))
        .collect()
}

/// Two counts in one byte, `low` in its low nibble and `high` in its high
/// one; a count of 15 or more writes 15 there, and 15 less than it as a
/// varint behind the byte (`low`'s first).
fn head(out: &mut Vec<u8>, low: usize, high: usize) {
    out.push(low.min(15) as u8 | (high.min(15) as u8) << 4);
    for count in [low, high].into_iter().filter(|&count| count >= 15) {
        write_varint(out, (count - 15) as u64);
    }
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
            let mut doc_file = Vec::new();
            write_docs(&docs, &mut doc_file).unwrap();
            assert!(doc_file == serialise_docs(&docs, SEGMENT_VERSION));
            for index in &indices {
                let mut written = Vec::new();
                let info =
                    write_segment(index, docs.len(), std::io::Cursor::new(&mut written)).unwrap();
                assert_eq!(info.bytes, written.len() as u64);
                assert_eq!(info.posting_count, index.posting_count());
                assert!(
                    written == seal_then_serialise(index, docs.len(), SEGMENT_VERSION, xxh64),
                    "{implementation:?} x{extractors}: streamed segment differs from the reference"
                );
                // There is one readable version: the same payload stamped 12
                // (every list in blocks), 11 (a doc table in every segment),
                // 10 (seven-bit exception positions, two varints a term and
                // a path), 9 (read before accents folded), 8, 7, 6, 5 or 4
                // (under this build's checksum) or 3 (under the FNV-1a of
                // versions 1–3) is refused by its version, by both readers,
                // before its checksum is looked at.
                let fnv1a: fn(&[u8]) -> u64 = dsearch::text::fnv1a_64;
                let xxh64: fn(&[u8]) -> u64 = xxh64;
                let old_versions = [
                    (12, xxh64),
                    (11, xxh64),
                    (10, xxh64),
                    (9, xxh64),
                    (8, xxh64),
                    (7, xxh64),
                    (6, xxh64),
                    (5, xxh64),
                    (4, xxh64),
                    (3, fnv1a),
                ];
                for (version, checksum) in old_versions {
                    let old = seal_then_serialise(index, docs.len(), version, checksum);
                    assert_eq!((old[12], written[12]), (version as u8, 13));
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

/// A store whose segment is stamped 12 — every list in blocks, its answers
/// this version's — is refused by the segment's name, with the way out, and
/// never read; a full run over it writes version 13.
#[test]
fn a_version_12_segment_is_refused_by_name_with_the_way_out() {
    let (fs, _) = materialize_to_memfs(&CorpusSpec::tiny(), 13);
    let (index, docs) = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::SharedLocked, Configuration::new(2, 0, 0))
        .unwrap()
        .outcome
        .into_single_index();
    let dir = TempDir::new("v12");
    let mut store = IndexStore::open(dir.path().join("store")).unwrap();
    store.replace_with(std::slice::from_ref(&index), &docs).unwrap();
    let segment = store.root().join(&store.manifest().segments[0]);
    assert!(fs::read(&segment).unwrap() == seal_then_serialise(&index, docs.len(), 13, xxh64));
    fs::write(&segment, seal_then_serialise(&index, docs.len(), 12, xxh64)).unwrap();
    let message = store.load_all_sealed().map(drop).unwrap_err().to_string();
    let name = store.manifest().segments[0].clone();
    assert!(
        message.starts_with(&format!("{name}: unsupported format version 12 (expected 13)")),
        "{message}"
    );
    assert!(message.contains("a full `dsearch index` or a fresh `dsearch build`"), "{message}");
    store.replace_with(std::slice::from_ref(&index), &docs).unwrap();
    let (shards, _) = store.load_all_sealed().unwrap();
    assert!(shards == [SealedShard::from_index(&index)]);
}

/// BM25's document count is the number of documents with a recorded length
/// (README "Ranked retrieval").  An en-bloc insert records one for a file
/// without terms, so every store `dsearch index` writes counts such files;
/// an index built one occurrence at a time, each file counted through
/// `note_files_done`, does not, and there the count falls below
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
        per_occurrence.note_files_done(1);
    }
    assert_eq!((en_bloc.file_count(), per_occurrence.file_count()), (3, 3));

    for (index, scored) in [(&en_bloc, 3), (&per_occurrence, 2)] {
        let sealed = SealedShard::from_index(index);
        assert_eq!(sealed.file_count(), scored);
        let mut written = Vec::new();
        write_segment(index, docs.len(), std::io::Cursor::new(&mut written)).unwrap();
        assert!(read_segment_sealed(&written[..]).unwrap().0 == sealed);
        // Load mutably, commit again: the same bytes, so the same idf, the
        // same norms and the same list bounds.
        let (restored, doc_count) = read_segment(&written[..]).unwrap();
        assert_eq!(restored.file_count(), scored);
        let mut rewritten = Vec::new();
        write_segment(&restored, doc_count as usize, std::io::Cursor::new(&mut rewritten)).unwrap();
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
    let (indexes, docs) = store.load_all().unwrap();
    let searcher = Searcher::new(&indexes, &docs);
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
    let (restored, docs) = store.load_all().unwrap();
    assert!(restored[0].is_empty() && docs.is_empty());
}
