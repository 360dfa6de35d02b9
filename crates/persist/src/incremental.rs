//! Change detection for incremental re-indexing.
//!
//! A desktop index is rebuilt many times over its life, but between two runs
//! only a small fraction of the files change.  The store keeps a per-file
//! signature (size + FNV-1a content hash) from the previous run
//! ([`SignatureDb`]); [`SignatureDb::diff`] walks the tree again — Stage 1,
//! which the paper measured at 2–5 % of the runtime — signs every file it
//! finds, and classifies it as *added*, *modified* or *unchanged*, and every
//! recorded path it did not find as *removed* ([`ChangeSet`]).
//!
//! That is all this module does: a filter behind Stage 1.  Extraction and
//! the index update of the files that changed are the paper's pipeline's
//! (`dsearch_core::IndexGenerator::update_store`), the same extractors and
//! update sinks every other build runs.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use serde::{Deserialize, Serialize};

use dsearch_text::fnv::fnv1a_64;
use dsearch_vfs::{FileSystem, VPath, WalkStats, Walker};

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
    entries: BTreeMap<String, FileSignature>,
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

    /// Classifies the tree under `root` against this database.
    ///
    /// Every file the walk finds is read and signed here, so the signature a
    /// changed file comes back with is of bytes read *before* anyone extracts
    /// it: should the file change in between, the index holds the later
    /// contents under the earlier signature, and the next run sees it as
    /// modified once more — re-scanned, never skipped.
    ///
    /// # Errors
    ///
    /// Fails when the tree cannot be walked or a file cannot be read.
    pub fn diff<F: FileSystem + ?Sized>(
        &self,
        fs: &F,
        root: &VPath,
    ) -> Result<ChangeSet, PersistError> {
        let (files, walk) = Walker::new().walk(fs, root)?;
        let mut change = ChangeSet { walk, ..ChangeSet::default() };
        let mut seen = BTreeSet::new();
        for found in files {
            let signature = FileSignature::from_bytes(&fs.read(&found.path)?);
            match self.entries.get_key_value(found.path.as_str()) {
                None => change.added.push((found.path, signature)),
                Some((path, old)) => {
                    seen.insert(path);
                    if *old == signature {
                        change.unchanged += 1;
                    } else {
                        change.modified.push((found.path, signature));
                    }
                }
            }
        }
        change.removed = self.entries.keys().filter(|path| !seen.contains(path)).cloned().collect();
        Ok(change)
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
    /// Files present now but never indexed before, in walk order, each with
    /// the signature of what it held when it was classified.
    pub added: Vec<(VPath, FileSignature)>,
    /// Files whose contents differ from the recorded signature, likewise.
    pub modified: Vec<(VPath, FileSignature)>,
    /// Paths that were indexed before but no longer exist.
    pub removed: Vec<String>,
    /// Number of files whose signature is unchanged.
    pub unchanged: u64,
    /// What the walk saw: the whole tree, not the changed part of it.
    pub walk: WalkStats,
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

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_vfs::MemFs;

    #[test]
    fn diff_classifies_every_file_and_signs_the_changed_ones() {
        let fs = MemFs::new();
        for (path, body) in [("docs/a.txt", "alpha beta"), ("docs/b.txt", "beta gamma")] {
            fs.add_file(&VPath::new(path), body.as_bytes().to_vec()).unwrap();
        }
        // A first run: everything is new, in walk order, signed as read.
        let first = SignatureDb::new().diff(&fs, &VPath::root()).unwrap();
        let paths: Vec<&str> = first.added.iter().map(|(path, _)| path.as_str()).collect();
        assert_eq!(paths, ["docs/a.txt", "docs/b.txt"]);
        assert_eq!(first.added[0].1, FileSignature::from_bytes(b"alpha beta"));
        assert_eq!((first.files_to_scan(), first.unchanged, first.walk.files), (2, 0, 2));
        assert!(!first.is_clean());

        let mut db = SignatureDb::new();
        for (path, signature) in &first.added {
            db.record(path.as_str(), *signature);
        }
        assert!(db.diff(&fs, &VPath::root()).unwrap().is_clean());

        // Same size, other contents: the hash catches it.  One file gone, one new.
        fs.remove_file(&VPath::new("docs/a.txt")).unwrap();
        fs.add_file(&VPath::new("docs/a.txt"), b"alpha omega".to_vec()).unwrap();
        fs.remove_file(&VPath::new("docs/b.txt")).unwrap();
        fs.add_file(&VPath::new("docs/c.txt"), b"delta".to_vec()).unwrap();
        let second = db.diff(&fs, &VPath::root()).unwrap();
        assert_eq!(
            second.modified,
            [(VPath::new("docs/a.txt"), FileSignature::from_bytes(b"alpha omega"))]
        );
        assert_eq!(second.added, [(VPath::new("docs/c.txt"), FileSignature::from_bytes(b"delta"))]);
        assert_eq!(second.removed, ["docs/b.txt"]);
        assert_eq!(second.unchanged, 0);
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
        assert_eq!(restored.len(), 2);
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
