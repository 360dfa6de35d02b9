//! Build checkpoints and the dead-letter queue — the on-disk state that makes
//! an index build crash-safe and resumable.
//!
//! Two JSON files live next to the segments inside an index-store directory:
//!
//! * `checkpoint.json` ([`BuildCheckpoint`]) — the durable progress record of
//!   a pipeline build: which files have been extracted and sealed into which
//!   partial segments, plus a fingerprint of the corpus the build ran over.
//!   It is written atomically (write-then-rename) and only *after* the
//!   segment it references is safely on disk, so at every instant the
//!   checkpoint describes data that actually exists.  A crash between a
//!   segment commit and the checkpoint write leaves an orphan segment in the
//!   manifest; [`BuildCheckpoint::reconcile`] detects and drops it on resume.
//! * `dlq.json` ([`DeadLetterQueue`]) — files that repeatedly failed
//!   extraction (or failed permanently) are quarantined here with their final
//!   error instead of poisoning the build.  `dsearch dlq list` inspects the
//!   queue; `dsearch dlq replay` re-runs the quarantined items.
//!
//! Both formats are versioned independently of the segment format; segments
//! referenced by a checkpoint are ordinary v7 segments — the one readable
//! version — loaded like any other.

use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::error::PersistError;
use crate::store::{write_atomic, IndexStore};

/// File name of the build checkpoint inside a store directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.json";

/// File name of the dead-letter queue inside a store directory.
pub const DLQ_FILE: &str = "dlq.json";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The durable progress record of a checkpointed index build.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuildCheckpoint {
    /// Checkpoint format version.
    pub version: u32,
    /// FNV fingerprint of the corpus file list (paths + sizes) the build ran
    /// over; a resume against a changed corpus is refused.
    pub corpus_fingerprint: u64,
    /// File ids (Stage 1 walk order is deterministic, so ids are stable
    /// across runs) whose terms are sealed in one of [`Self::segments`].
    pub completed: Vec<u32>,
    /// Segment file names owned by this build, in seal order.
    pub segments: Vec<String>,
    /// `true` once every work item has been extracted or dead-lettered.
    pub complete: bool,
}

impl BuildCheckpoint {
    /// Creates an empty checkpoint for a fresh build over a corpus with the
    /// given fingerprint.
    #[must_use]
    pub fn new(corpus_fingerprint: u64) -> Self {
        BuildCheckpoint {
            version: CHECKPOINT_VERSION,
            corpus_fingerprint,
            completed: Vec::new(),
            segments: Vec::new(),
            complete: false,
        }
    }

    /// Loads the checkpoint from a store directory, or `None` when no build
    /// has checkpointed there.
    ///
    /// # Errors
    ///
    /// Fails when the file exists but is unreadable, corrupt, or of an
    /// unsupported version.
    pub fn load(store_root: &Path) -> Result<Option<Self>, PersistError> {
        let path = store_root.join(CHECKPOINT_FILE);
        if !path.exists() {
            return Ok(None);
        }
        let json = fs::read_to_string(&path)?;
        let checkpoint: BuildCheckpoint = serde_json::from_str(&json)
            .map_err(|e| PersistError::Corrupt(format!("checkpoint: {e}")))?;
        if checkpoint.version != CHECKPOINT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: checkpoint.version,
                expected: CHECKPOINT_VERSION,
            });
        }
        Ok(Some(checkpoint))
    }

    /// Atomically writes the checkpoint into a store directory.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be written.
    pub fn save(&self, store_root: &Path) -> Result<(), PersistError> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| PersistError::Corrupt(format!("checkpoint serialisation: {e}")))?;
        write_atomic(store_root, CHECKPOINT_FILE, &json)
    }

    /// Removes the checkpoint file (start of a fresh build).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors other than the file already being absent.
    pub fn remove(store_root: &Path) -> Result<(), PersistError> {
        match fs::remove_file(store_root.join(CHECKPOINT_FILE)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Reconciles the store manifest with this checkpoint: any segment the
    /// manifest lists but the checkpoint does not is an orphan from a crash
    /// between a segment commit and the checkpoint write — its items were
    /// never marked completed, so the segment is dropped (and its items will
    /// be re-extracted).  Returns the number of orphans removed.
    ///
    /// # Errors
    ///
    /// Fails when the checkpoint references a segment the manifest lost, or
    /// lists one twice (store corruption), or the pruned manifest cannot be
    /// written.
    pub fn reconcile(&self, store: &mut IndexStore) -> Result<usize, PersistError> {
        let live: Vec<String> =
            store.manifest().segments.iter().map(|s| s.file_name.clone()).collect();
        for (position, name) in self.segments.iter().enumerate() {
            if !live.iter().any(|l| l == name) {
                return Err(PersistError::Corrupt(format!(
                    "checkpoint references segment {name} missing from the store manifest"
                )));
            }
            if self.segments[..position].contains(name) {
                return Err(PersistError::Corrupt(format!(
                    "checkpoint lists segment {name} twice"
                )));
            }
        }
        // Distinct names, each of them live: no more than the manifest has.
        let orphans = live.len() - self.segments.len();
        if orphans > 0 {
            store.retain_segments(|name| self.segments.iter().any(|s| s == name))?;
        }
        Ok(orphans)
    }
}

/// One quarantined work item.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadLetter {
    /// Path of the file that failed, relative to the indexed root.
    pub path: String,
    /// File id the failed item had in the build that quarantined it.
    pub file_id: u32,
    /// Extraction attempts made before giving up.
    pub attempts: u32,
    /// The final error, rendered.
    pub error: String,
}

/// The on-disk dead-letter queue of a store.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadLetterQueue {
    /// Quarantined items, in the order they died.
    pub entries: Vec<DeadLetter>,
}

impl DeadLetterQueue {
    /// Loads the DLQ from a store directory (empty when absent).
    ///
    /// # Errors
    ///
    /// Fails when the file exists but is unreadable or corrupt.
    pub fn load(store_root: &Path) -> Result<Self, PersistError> {
        let path = store_root.join(DLQ_FILE);
        if !path.exists() {
            return Ok(DeadLetterQueue::default());
        }
        let json = fs::read_to_string(&path)?;
        serde_json::from_str(&json).map_err(|e| PersistError::Corrupt(format!("dlq: {e}")))
    }

    /// Atomically writes the DLQ into a store directory.  An empty queue
    /// removes the file instead of leaving an empty husk behind.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be written or removed.
    pub fn save(&self, store_root: &Path) -> Result<(), PersistError> {
        if self.entries.is_empty() {
            match fs::remove_file(store_root.join(DLQ_FILE)) {
                Ok(()) => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
                Err(e) => return Err(e.into()),
            }
        }
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| PersistError::Corrupt(format!("dlq serialisation: {e}")))?;
        write_atomic(store_root, DLQ_FILE, &json)
    }

    /// Number of quarantined items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is quarantined.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when `path` is quarantined.
    #[must_use]
    pub fn contains(&self, path: &str) -> bool {
        self.entries.iter().any(|e| e.path == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_index::{DocTable, FileId, InMemoryIndex};
    use dsearch_text::Term;
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let mut path = std::env::temp_dir();
            let unique = format!(
                "dsearch-ckpt-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            );
            path.push(unique.replace(['(', ')', ' '], ""));
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

    fn sample_index() -> (InMemoryIndex, DocTable) {
        let mut docs = DocTable::new();
        let id = docs.insert("a.txt");
        let mut index = InMemoryIndex::new();
        index.insert_file(id, [Term::from("alpha")]);
        let _ = FileId(0);
        (index, docs)
    }

    #[test]
    fn checkpoint_round_trips_and_is_absent_initially() {
        let dir = TempDir::new("roundtrip");
        assert_eq!(BuildCheckpoint::load(&dir.0).unwrap(), None);

        let mut ckpt = BuildCheckpoint::new(0xfeed);
        ckpt.completed = vec![0, 2, 5];
        ckpt.segments = vec!["segment-000001.dsg".into()];
        ckpt.save(&dir.0).unwrap();

        let loaded = BuildCheckpoint::load(&dir.0).unwrap().unwrap();
        assert_eq!(loaded, ckpt);
        assert!(!loaded.complete);

        BuildCheckpoint::remove(&dir.0).unwrap();
        assert_eq!(BuildCheckpoint::load(&dir.0).unwrap(), None);
        // Removing twice is fine.
        BuildCheckpoint::remove(&dir.0).unwrap();
    }

    #[test]
    fn corrupt_and_versioned_checkpoints_are_rejected() {
        let dir = TempDir::new("corrupt");
        fs::write(dir.0.join(CHECKPOINT_FILE), "{ nope").unwrap();
        assert!(matches!(BuildCheckpoint::load(&dir.0), Err(PersistError::Corrupt(_))));

        let bad = BuildCheckpoint { version: 99, ..BuildCheckpoint::new(1) };
        fs::write(dir.0.join(CHECKPOINT_FILE), serde_json::to_string(&bad).unwrap()).unwrap();
        assert!(matches!(
            BuildCheckpoint::load(&dir.0),
            Err(PersistError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn dlq_round_trips_and_empty_save_removes_the_file() {
        let dir = TempDir::new("dlq");
        assert!(DeadLetterQueue::load(&dir.0).unwrap().is_empty());

        let dlq = DeadLetterQueue {
            entries: vec![DeadLetter {
                path: "bad.txt".into(),
                file_id: 7,
                attempts: 4,
                error: "i/o error: boom".into(),
            }],
        };
        dlq.save(&dir.0).unwrap();
        let loaded = DeadLetterQueue::load(&dir.0).unwrap();
        assert_eq!(loaded, dlq);
        assert_eq!(loaded.len(), 1);
        assert!(loaded.contains("bad.txt"));
        assert!(!loaded.contains("good.txt"));

        DeadLetterQueue::default().save(&dir.0).unwrap();
        assert!(!dir.0.join(DLQ_FILE).exists());
        // Saving empty twice is fine.
        DeadLetterQueue::default().save(&dir.0).unwrap();
    }

    #[test]
    fn reconcile_drops_orphan_segments_and_detects_missing_ones() {
        let dir = TempDir::new("reconcile");
        let mut store = IndexStore::open(dir.0.join("s")).unwrap();
        let (index, docs) = sample_index();
        let (first, _) = store.commit_named(std::slice::from_ref(&index), &docs).unwrap();
        // Simulate a crash after a second commit but before the checkpoint
        // write: the manifest has an orphan the checkpoint never recorded.
        let (_orphan, _) = store.commit_named(std::slice::from_ref(&index), &docs).unwrap();
        assert_eq!(store.segment_count(), 2);

        let mut ckpt = BuildCheckpoint::new(1);
        ckpt.segments = vec![first.clone()];
        assert_eq!(ckpt.reconcile(&mut store).unwrap(), 1);
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.manifest().segments[0].file_name, first);

        // A checkpoint referencing a segment the manifest lost is corruption.
        ckpt.segments = vec!["segment-999999.dsg".into()];
        assert!(matches!(ckpt.reconcile(&mut store), Err(PersistError::Corrupt(_))));
        // So is one listing a live segment twice — more names than the
        // manifest has segments, which used to underflow the orphan count.
        ckpt.segments = vec![first.clone(), first.clone()];
        match ckpt.reconcile(&mut store) {
            Err(PersistError::Corrupt(message)) => assert!(message.contains("twice"), "{message}"),
            other => panic!("a duplicated segment was accepted: {other:?}"),
        }
        assert_eq!(store.segment_count(), 1);
    }
}
