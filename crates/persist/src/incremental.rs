//! Incremental re-indexing.
//!
//! A desktop index is rebuilt many times over its life, but between two runs
//! only a small fraction of the files change.  The incremental indexer keeps
//! a per-file signature (size + FNV-1a content hash) from the previous run,
//! walks the tree again, and classifies every file as *added*, *modified*,
//! *removed* or *unchanged*.  Only added and modified files are re-scanned;
//! removed and modified files have their old postings deleted first.
//!
//! Stage 1 (the directory walk) still visits every file — the paper measured
//! that at 2–5 % of the runtime, so re-walking is cheap — but Stage 2 (term
//! extraction, the dominant cost) now runs only on the changed subset.

use std::path::Path;

use serde::{Deserialize, Serialize};

use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_text::fnv::fnv1a_64;
use dsearch_text::tokenizer::Tokenizer;
use dsearch_text::wordlist::WordListBuilder;
use dsearch_text::FnvHashMap;
use dsearch_vfs::{FileSystem, VPath, Walker};

use crate::error::PersistError;
use crate::store::write_atomic;

/// Name of the signature-database file inside an index store directory.
pub const SIGNATURES_FILE: &str = "signatures.json";

/// The signature used to decide whether a file changed between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FileSignature {
    /// File size in bytes.
    pub size: u64,
    /// FNV-1a hash of the full contents.
    pub content_hash: u64,
}

impl FileSignature {
    /// Computes the signature of a byte buffer.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Self {
        FileSignature { size: bytes.len() as u64, content_hash: fnv1a_64(bytes) }
    }
}

/// The persisted map from file path to its last-indexed signature.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SignatureDb {
    entries: std::collections::BTreeMap<String, FileSignature>,
}

impl SignatureDb {
    /// Creates an empty signature database (first run).
    #[must_use]
    pub fn new() -> Self {
        SignatureDb::default()
    }

    /// Number of files tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no file has ever been indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded signature of `path`, if the file was indexed before.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<FileSignature> {
        self.entries.get(path).copied()
    }

    /// Records (or replaces) the signature of `path`.
    pub fn record(&mut self, path: impl Into<String>, signature: FileSignature) {
        self.entries.insert(path.into(), signature);
    }

    /// Forgets `path`; returns `true` when it was tracked.
    pub fn forget(&mut self, path: &str) -> bool {
        self.entries.remove(path).is_some()
    }

    /// Iterates over `(path, signature)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, FileSignature)> {
        self.entries.iter().map(|(p, s)| (p.as_str(), *s))
    }

    /// Loads the database from a store directory (empty when absent: a
    /// first run).
    ///
    /// # Errors
    ///
    /// Fails when the file exists but is unreadable or corrupt.
    pub fn load(store_root: &Path) -> Result<Self, PersistError> {
        let path = store_root.join(SIGNATURES_FILE);
        if !path.exists() {
            return Ok(SignatureDb::new());
        }
        SignatureDb::from_json(&std::fs::read_to_string(&path)?)
    }

    /// Atomically writes the database into a store directory: a crash
    /// mid-write leaves the previous file, never truncated JSON.
    ///
    /// The ordering rule: a signature on disk never vouches for contents the
    /// index beside it does not hold.  So save the database *after* the index
    /// it describes.  A crash between the two then
    /// leaves new segments beside old signatures: the next `--incremental`
    /// run sees the changed files as changed once more and re-scans them
    /// (their postings are replaced, not doubled).  The other order would
    /// leave new signatures beside an old index, and the changed files would
    /// be skipped as unchanged for good.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be written.
    pub fn save(&self, store_root: &Path) -> Result<(), PersistError> {
        write_atomic(store_root, SIGNATURES_FILE, &self.to_json()?)
    }

    /// Removes the database from a store directory whose segments are about
    /// to be replaced by an index it does not describe.  By the rule of
    /// [`save`](SignatureDb::save) it goes *before* them: a crash between the
    /// two leaves old segments beside no signatures, and the next
    /// `--incremental` run re-scans every file (replacing its postings).  The
    /// other order would leave the old signatures vouching for the new
    /// segments, and a file that went back to its recorded contents would be
    /// skipped as unchanged over postings of what it held in between.
    ///
    /// # Errors
    ///
    /// Fails when the file exists and cannot be removed.
    pub fn retire(store_root: &Path) -> Result<(), PersistError> {
        match std::fs::remove_file(store_root.join(SIGNATURES_FILE)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
            _ => Ok(()),
        }
    }

    /// Serialises the database as JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialisation failures (which cannot normally happen for
    /// this type).
    pub fn to_json(&self) -> Result<String, PersistError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| PersistError::Corrupt(format!("signature db serialisation: {e}")))
    }

    /// Restores a database from JSON.
    ///
    /// # Errors
    ///
    /// Fails when the JSON is malformed.
    pub fn from_json(json: &str) -> Result<Self, PersistError> {
        serde_json::from_str(json).map_err(|e| PersistError::Corrupt(format!("signature db: {e}")))
    }
}

/// The classification of the current file tree against the signature
/// database.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChangeSet {
    /// Files present now but never indexed before.
    pub added: Vec<VPath>,
    /// Files whose contents differ from the recorded signature.
    pub modified: Vec<VPath>,
    /// Paths that were indexed before but no longer exist.
    pub removed: Vec<String>,
    /// Number of files whose signature is unchanged.
    pub unchanged: u64,
}

impl ChangeSet {
    /// Total number of files that need re-scanning.
    #[must_use]
    pub fn files_to_scan(&self) -> usize {
        self.added.len() + self.modified.len()
    }

    /// Returns `true` when nothing changed since the last run.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.added.is_empty() && self.modified.is_empty() && self.removed.is_empty()
    }
}

/// Statistics of one incremental update.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateReport {
    /// Files newly indexed.
    pub added: u64,
    /// Files re-indexed because their contents changed.
    pub modified: u64,
    /// Files whose postings were removed because the file disappeared.
    pub removed: u64,
    /// Files skipped because they were unchanged.
    pub unchanged: u64,
    /// Bytes read from the changed files.
    pub bytes_scanned: u64,
    /// Postings removed from the index (for removed/modified files).
    pub postings_removed: u64,
    /// Postings added to the index.
    pub postings_added: u64,
}

impl UpdateReport {
    /// Fraction of the visited files that had to be re-scanned (0.0 – 1.0).
    #[must_use]
    pub fn rescan_ratio(&self) -> f64 {
        let total = self.added + self.modified + self.unchanged;
        if total == 0 {
            0.0
        } else {
            (self.added + self.modified) as f64 / total as f64
        }
    }
}

/// Re-indexes only the files that changed since the previous run.
#[derive(Debug, Clone, Default)]
pub struct IncrementalIndexer {
    tokenizer: Tokenizer,
    walker: Walker,
}

impl IncrementalIndexer {
    /// Creates an indexer with the default tokenizer and walker.
    #[must_use]
    pub fn new() -> Self {
        IncrementalIndexer::default()
    }

    /// Uses a custom tokenizer (lowercasing, term-length limits, …).
    #[must_use]
    pub fn with_tokenizer(mut self, tokenizer: Tokenizer) -> Self {
        self.tokenizer = tokenizer;
        self
    }

    /// Uses a custom directory walker (extension filters, size limits, …).
    #[must_use]
    pub fn with_walker(mut self, walker: Walker) -> Self {
        self.walker = walker;
        self
    }

    /// Classifies the tree under `root` against `signatures` without touching
    /// the index.
    ///
    /// Note that detecting *modification* requires reading the file to hash
    /// it; files whose size changed are classified as modified without
    /// hashing.
    ///
    /// # Errors
    ///
    /// Fails when the tree cannot be walked or a file cannot be read.
    pub fn diff<F: FileSystem + ?Sized>(
        &self,
        fs: &F,
        root: &VPath,
        signatures: &SignatureDb,
    ) -> Result<ChangeSet, PersistError> {
        let (files, _stats) = self.walker.walk(fs, root)?;
        let mut change = ChangeSet::default();
        let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for found in files {
            let path_str = found.path.as_str().to_owned();
            seen.insert(path_str.clone());
            match signatures.get(&path_str) {
                None => change.added.push(found.path),
                Some(old) if old.size != found.size => change.modified.push(found.path),
                Some(old) => {
                    let data = fs.read(&found.path)?;
                    if FileSignature::from_bytes(&data) == old {
                        change.unchanged += 1;
                    } else {
                        change.modified.push(found.path);
                    }
                }
            }
        }
        for (path, _) in signatures.iter() {
            if !seen.contains(path) {
                change.removed.push(path.to_owned());
            }
        }
        Ok(change)
    }

    /// Brings `index`, `docs` and `signatures` up to date with the tree under
    /// `root`.
    ///
    /// # Errors
    ///
    /// Fails when the tree cannot be walked or a changed file cannot be read.
    pub fn update<F: FileSystem + ?Sized>(
        &self,
        fs: &F,
        root: &VPath,
        index: &mut InMemoryIndex,
        docs: &mut DocTable,
        signatures: &mut SignatureDb,
    ) -> Result<UpdateReport, PersistError> {
        let change = self.diff(fs, root, signatures)?;
        let mut report = UpdateReport { unchanged: change.unchanged, ..UpdateReport::default() };

        // Path → id lookup for the documents we already know.
        let mut known: FnvHashMap<String, dsearch_index::FileId> = FnvHashMap::new();
        for (id, path) in docs.iter() {
            known.insert(path.to_owned(), id);
        }

        // Every posting that is about to be stale — of the files that are
        // gone and of the known ones about to be re-indexed — leaves in one
        // pass over the index, however many files changed.
        let stale: Vec<dsearch_index::FileId> = change
            .removed
            .iter()
            .map(String::as_str)
            .chain(change.added.iter().chain(&change.modified).map(VPath::as_str))
            .filter_map(|path| known.get(path).copied())
            .collect();
        report.postings_removed = index.remove_files(&stale);
        for path in &change.removed {
            signatures.forget(path);
            report.removed += 1;
        }

        let mut token = String::new();
        let mut words = WordListBuilder::new();
        let mut reindex =
            |path: &VPath, is_new: bool, report: &mut UpdateReport| -> Result<(), PersistError> {
                let data = fs.read(path)?;
                let signature = FileSignature::from_bytes(&data);
                let path_str = path.as_str().to_owned();
                let id = match known.get(path_str.as_str()) {
                    Some(&id) => id,
                    None => {
                        let id = docs.insert(path_str.clone());
                        known.insert(path_str.clone(), id);
                        id
                    }
                };
                let mut scanner = self.tokenizer.scan(&data);
                while let Some(t) = scanner.next_token(&mut token) {
                    words.push_str(t);
                }
                let list = words.reset();
                report.postings_added += list.len() as u64;
                report.bytes_scanned += data.len() as u64;
                index.insert_file(id, list.into_terms());
                signatures.record(path_str, signature);
                if is_new {
                    report.added += 1;
                } else {
                    report.modified += 1;
                }
                Ok(())
            };

        for path in &change.added {
            reindex(path, true, &mut report)?;
        }
        for path in &change.modified {
            reindex(path, false, &mut report)?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_text::Term;
    use dsearch_vfs::MemFs;

    fn setup() -> (MemFs, InMemoryIndex, DocTable, SignatureDb, IncrementalIndexer) {
        let fs = MemFs::new();
        fs.add_file(&VPath::new("docs/a.txt"), b"alpha beta".to_vec()).unwrap();
        fs.add_file(&VPath::new("docs/b.txt"), b"beta gamma".to_vec()).unwrap();
        (fs, InMemoryIndex::new(), DocTable::new(), SignatureDb::new(), IncrementalIndexer::new())
    }

    #[test]
    fn first_run_indexes_everything() {
        let (fs, mut index, mut docs, mut sigs, indexer) = setup();
        let report = indexer.update(&fs, &VPath::root(), &mut index, &mut docs, &mut sigs).unwrap();
        assert_eq!(report.added, 2);
        assert_eq!(report.modified, 0);
        assert_eq!(report.unchanged, 0);
        assert_eq!(index.file_count(), 2);
        assert_eq!(sigs.len(), 2);
        assert!(index.contains_term(&Term::from("alpha")));
        assert!((report.rescan_ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn unchanged_tree_is_a_no_op() {
        let (fs, mut index, mut docs, mut sigs, indexer) = setup();
        indexer.update(&fs, &VPath::root(), &mut index, &mut docs, &mut sigs).unwrap();
        let before = index.clone();
        let report = indexer.update(&fs, &VPath::root(), &mut index, &mut docs, &mut sigs).unwrap();
        assert_eq!(report.added + report.modified + report.removed, 0);
        assert_eq!(report.unchanged, 2);
        assert_eq!(index, before);
        assert_eq!(report.rescan_ratio(), 0.0);
        let diff = indexer.diff(&fs, &VPath::root(), &sigs).unwrap();
        assert!(diff.is_clean());
        assert_eq!(diff.files_to_scan(), 0);
    }

    #[test]
    fn modified_file_is_reindexed_in_place() {
        let (fs, mut index, mut docs, mut sigs, indexer) = setup();
        indexer.update(&fs, &VPath::root(), &mut index, &mut docs, &mut sigs).unwrap();

        // Same size, different content: hash must catch it.
        fs.remove_file(&VPath::new("docs/a.txt")).unwrap();
        fs.add_file(&VPath::new("docs/a.txt"), b"alpha omega".to_vec()).unwrap();
        let report = indexer.update(&fs, &VPath::root(), &mut index, &mut docs, &mut sigs).unwrap();
        assert_eq!(report.modified, 1);
        assert_eq!(report.added, 0);
        assert!(index.contains_term(&Term::from("omega")));
        assert!(
            !index.contains_term(&Term::from("beta")) || {
                // "beta" must survive through b.txt only.
                index.postings(&Term::from("beta")).unwrap().len() == 1
            }
        );
        // The doc table did not grow: the path kept its id.
        assert_eq!(docs.len(), 2);
    }

    #[test]
    fn removed_file_loses_its_postings() {
        let (fs, mut index, mut docs, mut sigs, indexer) = setup();
        indexer.update(&fs, &VPath::root(), &mut index, &mut docs, &mut sigs).unwrap();
        fs.remove_file(&VPath::new("docs/b.txt")).unwrap();
        let report = indexer.update(&fs, &VPath::root(), &mut index, &mut docs, &mut sigs).unwrap();
        assert_eq!(report.removed, 1);
        assert!(!index.contains_term(&Term::from("gamma")));
        assert_eq!(index.postings(&Term::from("beta")).unwrap().len(), 1);
        assert_eq!(sigs.len(), 1);
    }

    #[test]
    fn added_file_joins_the_index() {
        let (fs, mut index, mut docs, mut sigs, indexer) = setup();
        indexer.update(&fs, &VPath::root(), &mut index, &mut docs, &mut sigs).unwrap();
        fs.add_file(&VPath::new("docs/c.txt"), b"delta".to_vec()).unwrap();
        let report = indexer.update(&fs, &VPath::root(), &mut index, &mut docs, &mut sigs).unwrap();
        assert_eq!(report.added, 1);
        assert_eq!(report.unchanged, 2);
        assert!(index.contains_term(&Term::from("delta")));
        assert_eq!(docs.len(), 3);
        assert!(report.rescan_ratio() > 0.3 && report.rescan_ratio() < 0.4);
    }

    #[test]
    fn incremental_result_matches_full_rebuild() {
        let (fs, mut index, mut docs, mut sigs, indexer) = setup();
        indexer.update(&fs, &VPath::root(), &mut index, &mut docs, &mut sigs).unwrap();
        // A mixed batch of changes.
        fs.remove_file(&VPath::new("docs/a.txt")).unwrap();
        fs.add_file(&VPath::new("docs/a.txt"), b"alpha rewritten entirely".to_vec()).unwrap();
        fs.add_file(&VPath::new("docs/new.txt"), b"fresh words".to_vec()).unwrap();
        fs.remove_file(&VPath::new("docs/b.txt")).unwrap();
        indexer.update(&fs, &VPath::root(), &mut index, &mut docs, &mut sigs).unwrap();

        // Full rebuild over the same final tree.
        let mut full_index = InMemoryIndex::new();
        let mut full_docs = DocTable::new();
        let mut full_sigs = SignatureDb::new();
        indexer
            .update(&fs, &VPath::root(), &mut full_index, &mut full_docs, &mut full_sigs)
            .unwrap();

        // Term → path sets must agree (ids may differ because the incremental
        // doc table keeps tombstoned entries).
        let to_paths = |idx: &InMemoryIndex, table: &DocTable| {
            let mut v: Vec<(String, Vec<String>)> = idx
                .iter()
                .map(|(t, p)| {
                    let mut paths: Vec<String> =
                        p.iter().filter_map(|id| table.path(id).map(str::to_owned)).collect();
                    paths.sort();
                    (t.as_str().to_owned(), paths)
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(to_paths(&index, &docs), to_paths(&full_index, &full_docs));
    }

    #[test]
    fn signature_db_round_trips_as_json() {
        let mut db = SignatureDb::new();
        db.record("a.txt", FileSignature::from_bytes(b"alpha"));
        db.record("b.txt", FileSignature { size: 9, content_hash: 42 });
        let json = db.to_json().unwrap();
        let restored = SignatureDb::from_json(&json).unwrap();
        assert_eq!(restored, db);
        assert_eq!(restored.get("b.txt"), Some(FileSignature { size: 9, content_hash: 42 }));
        assert_eq!(restored.iter().count(), 2);
        assert!(SignatureDb::from_json("{ nope").is_err());
    }

    #[test]
    fn signature_distinguishes_same_length_contents() {
        let a = FileSignature::from_bytes(b"abcd");
        let b = FileSignature::from_bytes(b"abce");
        assert_eq!(a.size, b.size);
        assert_ne!(a, b);
    }
}
