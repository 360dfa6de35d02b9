//! Incremental re-indexing: Stage 1 with a filter.
//!
//! [`IndexGenerator::update_store`] brings a store up to date with a tree by
//! running the paper's pipeline over the files that changed and nothing
//! else.  The store's signature database says which those are
//! ([`SignatureDb::diff`]: every file the walk finds is signed, and compared
//! with what the previous run recorded); they become the [`WorkItem`]s of
//! an ordinary [`run_items`](IndexGenerator::run_items) — the caller's
//! implementation, thread counts and [`GeneratorOptions`] apply, and
//! frequencies and document lengths reach the index through the extractor
//! and the update sinks every other build uses.  What the store held,
//! without the postings of the files that changed or went, and what the
//! run built are then sealed into one segment by the k-source merge a full
//! Implementation 3 run is persisted with: nothing is joined by hashing.
//!
//! The order is the safety of it.  Stale postings leave the loaded indexes
//! before any file is extracted; the new segment is published before the
//! signatures that describe it are saved ([`SignatureDb::save`]); and a
//! signature is of bytes read *before* extraction, so a file that changes in
//! between is re-scanned by the next run, never skipped.
//!
//! [`GeneratorOptions`]: crate::config::GeneratorOptions

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dsearch_index::{DocTable, FileId, IndexSet};
use dsearch_persist::{ChangeSet, IndexStore, SegmentInfo, SignatureDb};
use dsearch_vfs::{FileSystem, VPath};

use crate::config::{Configuration, Implementation};
use crate::distribute::WorkItem;
use crate::error::PipelineError;
use crate::report::{IndexOutcome, ParallelRun};
use crate::runner::IndexGenerator;
use crate::stage1::FilenameSet;

/// Result of one incremental update.
#[derive(Debug)]
pub struct IncrementalRun {
    /// What the walk found against the signatures: the files added and
    /// modified (extracted by this run), removed, and left alone.
    pub changes: ChangeSet,
    /// Postings removed from what the store held (of removed and re-indexed
    /// files).
    pub postings_removed: u64,
    /// The pipeline run over the added and modified files: its `stage2`
    /// counts those alone, its `filename_generation` is everything in front
    /// of extraction (load, walk, sign, remove), and its `outcome` is the
    /// whole index as it was stored — the store's earlier indexes followed
    /// by the run's replicas, un-joined, over the one document table.
    pub run: ParallelRun,
    /// The one segment the store now holds.
    pub info: SegmentInfo,
    /// Sealing and writing that segment, and saving the signatures.
    pub persist: Duration,
}

impl IncrementalRun {
    /// Fraction of the files found that had to be re-scanned (0.0 – 1.0).
    #[must_use]
    pub fn rescan_ratio(&self) -> f64 {
        let scanned = self.changes.files_to_scan() as u64;
        match scanned + self.changes.unchanged {
            0 => 0.0,
            found => scanned as f64 / found as f64,
        }
    }
}

impl IndexGenerator {
    /// Brings `store` (and the signatures beside it) up to date with the tree
    /// under `root`, extracting only the files that were added or modified
    /// since the signatures were saved.  A store without signatures — a new
    /// one, or one a full `run` last wrote — has every file extracted, under
    /// the ids its document table already gives their paths.
    ///
    /// A path keeps its id for as long as the store lives; a file that is
    /// gone stays in the document table without postings or a length.
    ///
    /// # Errors
    ///
    /// Fails when the store cannot be loaded or written, the tree cannot be
    /// walked or a file cannot be read, or like
    /// [`run_items`](IndexGenerator::run_items).  The store is untouched by
    /// a failure before the segment is published; one after it leaves the
    /// new segment without signatures, and the next update re-scans.
    pub fn update_store<F: FileSystem + ?Sized>(
        &self,
        fs: &F,
        root: &VPath,
        store: &mut IndexStore,
        implementation: Implementation,
        configuration: Configuration,
    ) -> Result<IncrementalRun, PipelineError> {
        let sw = Instant::now();
        // The segments of one build share a document table; where they do
        // not (a build that was cut short), the longest knows every id.
        let mut sources = Vec::with_capacity(store.segment_count());
        let mut docs = DocTable::new();
        for (index, segment_docs) in store.load_all()? {
            sources.push(index);
            if segment_docs.len() > docs.len() {
                docs = segment_docs;
            }
        }
        let mut signatures = SignatureDb::load(store.root())?;
        if signatures.is_empty() {
            // Nothing vouches for what the store holds: every file found is
            // extracted again, and a file not found must not stay.  The
            // document table does, for the ids.
            sources.clear();
        }
        let changes = signatures.diff(fs, root)?;

        let known: HashMap<String, FileId> =
            docs.iter().map(|(id, path)| (path.to_owned(), id)).collect();
        let mut stale: Vec<FileId> = Vec::new();
        for path in &changes.removed {
            stale.extend(known.get(path));
            signatures.forget(path);
        }
        let mut items = Vec::with_capacity(changes.files_to_scan());
        for (path, signature) in changes.added.iter().chain(&changes.modified) {
            let file_id = match known.get(path.as_str()) {
                Some(&id) => {
                    stale.push(id);
                    id
                }
                None => docs.insert(path.as_str()),
            };
            items.push(WorkItem { file_id, path: path.clone(), size: signature.size });
            signatures.record(path.as_str(), *signature);
        }
        // Every posting that is about to be stale leaves before a new one
        // arrives, in one pass over each index however many files changed.
        let postings_removed = sources.iter_mut().map(|index| index.remove_files(&stale)).sum();
        let filename_generation = sw.elapsed();

        let set = FilenameSet { items, docs, stats: changes.walk.into() };
        let mut run = self.run_items(fs, set, implementation, configuration)?;
        run.timings.filename_generation = filename_generation;
        run.timings.total += filename_generation;

        let sw = Instant::now();
        let (built, docs) = run.outcome.into_replicas();
        sources.extend(built);
        let info = store.replace_with(&sources, &docs)?;
        // Index first, signatures second: see `SignatureDb::save`.
        signatures.save(store.root())?;
        let persist = sw.elapsed();
        run.outcome = IndexOutcome::Replicas { set: IndexSet::new(sources), docs };

        Ok(IncrementalRun { changes, postings_removed, run, info, persist })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{by_path, stored, TempDir};
    use dsearch_index::join_all;
    use dsearch_persist::SIGNATURES_FILE;
    use dsearch_text::Term;
    use dsearch_vfs::MemFs;

    fn setup(tag: &str) -> (MemFs, TempDir) {
        let fs = MemFs::new();
        fs.add_file(&VPath::new("docs/a.txt"), b"alpha beta alpha".to_vec()).unwrap();
        fs.add_file(&VPath::new("docs/b.txt"), b"beta gamma".to_vec()).unwrap();
        (fs, TempDir::new(tag))
    }

    fn rewrite(fs: &MemFs, path: &str, contents: &str) {
        let _ = fs.remove_file(&VPath::new(path));
        fs.add_file(&VPath::new(path), contents.as_bytes().to_vec()).unwrap();
    }

    fn update(fs: &MemFs, dir: &TempDir) -> IncrementalRun {
        let mut store = IndexStore::open(&dir.0).unwrap();
        IndexGenerator::default()
            .update_store(
                fs,
                &VPath::root(),
                &mut store,
                Implementation::ReplicateNoJoin,
                Configuration::new(2, 0, 0),
            )
            .unwrap()
    }

    /// Files added, modified, removed, unchanged.
    fn counts(report: &IncrementalRun) -> (usize, usize, usize, u64) {
        let changes = &report.changes;
        (changes.added.len(), changes.modified.len(), changes.removed.len(), changes.unchanged)
    }

    /// What a full run over the tree as it stands builds.
    fn rebuilt(fs: &MemFs) -> crate::testing::ByPath {
        let run = IndexGenerator::default()
            .run(fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 1))
            .unwrap();
        let (index, docs) = run.outcome.into_single_index();
        by_path(&index, &docs)
    }

    #[test]
    fn first_run_indexes_everything() {
        let (fs, dir) = setup("first");
        let report = update(&fs, &dir);
        assert_eq!(counts(&report), (2, 0, 0, 0));
        assert_eq!(report.run.stage2.files, 2);
        assert_eq!(report.run.outcome.file_count(), 2);
        assert_eq!(report.info.doc_count, 2);
        assert!((report.rescan_ratio() - 1.0).abs() < f64::EPSILON);
        assert_eq!(SignatureDb::load(&dir.0).unwrap().len(), 2);

        // What a full run stores, to the byte: frequencies and lengths are
        // the pipeline's, ids are the walk's.
        let full = TempDir::new("first-full");
        let run = IndexGenerator::default()
            .run(&fs, &VPath::root(), Implementation::SharedLocked, Configuration::new(1, 0, 0))
            .unwrap();
        let mut store = IndexStore::open(&full.0).unwrap();
        store.replace_with(run.outcome.replicas(), run.outcome.docs()).unwrap();
        let segment = |dir: &TempDir| std::fs::read(dir.0.join("segment-000001.dsg")).unwrap();
        assert!(segment(&dir) == segment(&full));
        let (index, docs) = stored(&dir.0);
        let a = docs.find("docs/a.txt").unwrap();
        assert_eq!(index.postings(&Term::from("alpha")).unwrap().tf_of(a), Some(2));
        assert_eq!(index.doc_len(a), Some(3));
    }

    #[test]
    fn unchanged_tree_is_a_no_op() {
        let (fs, dir) = setup("no-op");
        update(&fs, &dir);
        let before = stored(&dir.0);
        let report = update(&fs, &dir);
        assert_eq!(counts(&report), (0, 0, 0, 2));
        assert_eq!((report.postings_removed, report.run.stage2.files), (0, 0));
        assert_eq!(report.rescan_ratio(), 0.0);
        assert_eq!(by_path(&before.0, &before.1), rebuilt(&fs));
        let after = stored(&dir.0);
        assert_eq!(by_path(&after.0, &after.1), rebuilt(&fs));
        assert!(SignatureDb::load(&dir.0).unwrap().diff(&fs, &VPath::root()).unwrap().is_clean());
    }

    #[test]
    fn modified_file_is_reindexed_in_place() {
        let (fs, dir) = setup("modified");
        update(&fs, &dir);
        // Same size, different content: the hash must catch it.
        rewrite(&fs, "docs/a.txt", "alpha omega omega");
        let report = update(&fs, &dir);
        assert_eq!(counts(&report), (0, 1, 0, 1));
        assert_eq!(report.postings_removed, 2);
        let (index, docs) = stored(&dir.0);
        assert!(index.contains_term(&Term::from("omega")));
        // "beta" survives through b.txt only.
        assert_eq!(index.postings(&Term::from("beta")).unwrap().len(), 1);
        // The doc table did not grow: the path kept its id.
        assert_eq!(docs.len(), 2);
        assert_eq!(by_path(&index, &docs), rebuilt(&fs));
    }

    #[test]
    fn removed_file_loses_its_postings() {
        let (fs, dir) = setup("removed");
        update(&fs, &dir);
        fs.remove_file(&VPath::new("docs/b.txt")).unwrap();
        let report = update(&fs, &dir);
        assert_eq!((counts(&report), report.postings_removed), ((0, 0, 1, 1), 2));
        // A tombstone in the table, one document with a length.
        assert_eq!((report.info.doc_count, report.run.outcome.file_count()), (2, 1));
        let (index, _) = stored(&dir.0);
        assert!(!index.contains_term(&Term::from("gamma")));
        assert_eq!(index.postings(&Term::from("beta")).unwrap().len(), 1);
        assert_eq!(SignatureDb::load(&dir.0).unwrap().len(), 1);
    }

    #[test]
    fn added_file_joins_the_index() {
        let (fs, dir) = setup("added");
        update(&fs, &dir);
        fs.add_file(&VPath::new("docs/c.txt"), b"delta".to_vec()).unwrap();
        let report = update(&fs, &dir);
        assert_eq!(counts(&report), (1, 0, 0, 2));
        assert!(report.rescan_ratio() > 0.3 && report.rescan_ratio() < 0.4);
        let (index, docs) = stored(&dir.0);
        assert!(index.contains_term(&Term::from("delta")));
        assert_eq!(docs.len(), 3);
    }

    #[test]
    fn incremental_result_matches_full_rebuild() {
        let (fs, dir) = setup("mixed");
        update(&fs, &dir);
        // A mixed batch of changes.
        rewrite(&fs, "docs/a.txt", "alpha rewritten entirely entirely");
        rewrite(&fs, "docs/new.txt", "fresh words fresh");
        fs.remove_file(&VPath::new("docs/b.txt")).unwrap();
        let report = update(&fs, &dir);

        // By path — the incremental table keeps the tombstone of `b.txt`, so
        // ids differ — the store says what a full run over the final tree
        // says: postings, frequencies, lengths.  So does the outcome the
        // update hands back, which is what it stored, un-joined.
        let (index, docs) = stored(&dir.0);
        assert_eq!(by_path(&index, &docs), rebuilt(&fs));
        let (sources, docs) = report.run.outcome.into_replicas();
        assert_eq!(by_path(&join_all(sources), &docs), rebuilt(&fs));
    }

    #[test]
    fn a_store_without_signatures_keeps_nothing_it_cannot_vouch_for() {
        let (fs, dir) = setup("unvouched");
        update(&fs, &dir);
        // As after a full run into the store (or a crash between the segment
        // and its signatures), with one of the files gone since.
        std::fs::remove_file(dir.0.join(SIGNATURES_FILE)).unwrap();
        fs.remove_file(&VPath::new("docs/b.txt")).unwrap();
        let report = update(&fs, &dir);
        assert_eq!(counts(&report), (1, 0, 0, 0));
        let (index, docs) = stored(&dir.0);
        assert_eq!(by_path(&index, &docs), rebuilt(&fs));
        // The path that stayed kept its id.
        assert_eq!((docs.len(), docs.find("docs/a.txt").map(FileId::as_u32)), (2, Some(0)));
    }

    #[test]
    fn the_callers_options_and_threads_are_the_runs() {
        let fs = MemFs::new();
        fs.add_file(&VPath::new("page.html"), b"<html><body>inverted index</body></html>".to_vec())
            .unwrap();
        fs.add_file(&VPath::new("plain.txt"), b"plain words".to_vec()).unwrap();
        let mut options = crate::config::GeneratorOptions::paper_defaults();
        options.formats = true;
        let generator = IndexGenerator::new(options);

        let mut segments = Vec::new();
        for implementation in Implementation::ALL {
            for extractors in [1, 2, 4] {
                let dir = TempDir::new("options");
                let mut store = IndexStore::open(&dir.0).unwrap();
                let joiners = usize::from(implementation.joins());
                let configuration = Configuration::new(extractors, 0, joiners);
                let report = generator
                    .update_store(&fs, &VPath::root(), &mut store, implementation, configuration)
                    .unwrap();
                assert_eq!(report.run.implementation, implementation);
                assert_eq!(report.run.configuration, configuration);
                let (index, _) = stored(&dir.0);
                assert!(index.contains_term(&Term::from("inverted")));
                assert!(!index.contains_term(&Term::from("body")), "markup tags are not terms");
                segments.push(std::fs::read(dir.0.join("segment-000001.dsg")).unwrap());
            }
        }
        assert!(segments.windows(2).all(|pair| pair[0] == pair[1]));

        // An invalid tuple is refused as a full run refuses it, the store
        // untouched.
        let dir = TempDir::new("options-invalid");
        let mut store = IndexStore::open(&dir.0).unwrap();
        let err = generator
            .update_store(
                &fs,
                &VPath::root(),
                &mut store,
                Implementation::ReplicateNoJoin,
                Configuration::new(1, 0, 2),
            )
            .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfiguration(_)));
        assert_eq!(store.segment_count(), 0);
    }
}
