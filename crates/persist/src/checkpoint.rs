//! Build checkpoints and the dead-letter queue — the on-disk state that makes
//! an index build crash-safe and resumable.
//!
//! Two JSON files live next to the segments inside an index-store directory:
//!
//! * `checkpoint.json` ([`BuildCheckpoint`]) — the durable progress record of
//!   a pipeline build: which files (ranges of ids) have been extracted and
//!   sealed into which partial segments, plus a fingerprint of the corpus.
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
//! The DLQ is versioned on its own.  A checkpoint's version is the segment
//! version its segments were written in, so a resume never extends a store
//! of another version: the checkpoint is refused before anything is
//! written.  Its segments are ordinary segments, loaded like any other.

use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::error::PersistError;
use crate::segment::SEGMENT_VERSION;
use crate::store::{write_atomic, IndexStore};

/// File name of the build checkpoint inside a store directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.json";

/// File name of the dead-letter queue inside a store directory.
pub const DLQ_FILE: &str = "dlq.json";

/// Current checkpoint format version: the segment version, since a
/// checkpoint is only as good as the segments it names.
pub const CHECKPOINT_VERSION: u32 = SEGMENT_VERSION;

/// The durable progress record of a checkpointed index build.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuildCheckpoint {
    /// Checkpoint format version.
    pub version: u32,
    /// FNV fingerprint of the corpus file list (paths + sizes) the build ran
    /// over; a resume against a changed corpus is refused.
    pub corpus_fingerprint: u64,
    /// File ids (Stage 1's walk and numbering are deterministic, so ids are
    /// stable across runs) whose terms are sealed in one of
    /// [`Self::segments`], as sorted, disjoint `[start, end)` ranges.
    pub completed: Vec<[u32; 2]>,
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
    /// unsupported version: a [`PersistError::Checkpoint`], which names the
    /// file and the way out.
    pub fn load(store_root: &Path) -> Result<Option<Self>, PersistError> {
        let path = store_root.join(CHECKPOINT_FILE);
        if !path.exists() {
            return Ok(None);
        }
        let read = || {
            let json = fs::read_to_string(&path)?;
            let checkpoint: BuildCheckpoint =
                serde_json::from_str(&json).map_err(|e| PersistError::Corrupt(e.to_string()))?;
            if checkpoint.version != CHECKPOINT_VERSION {
                return Err(PersistError::UnsupportedVersion {
                    found: checkpoint.version,
                    expected: CHECKPOINT_VERSION,
                });
            }
            let ranges = &checkpoint.completed;
            if ranges.iter().any(|r| r[0] >= r[1]) || ranges.windows(2).any(|w| w[0][1] > w[1][0]) {
                return Err(PersistError::Corrupt("completed ids are not sorted ranges".into()));
            }
            Ok(checkpoint)
        };
        read().map(Some).map_err(|source| PersistError::Checkpoint(Box::new(source)))
    }

    /// Records the ascending file ids `ids` as sealed.
    pub fn record_completed(&mut self, ids: &[u32]) {
        let mut ranges = std::mem::take(&mut self.completed);
        ranges.extend(ids.iter().map(|&id| [id, id + 1]));
        ranges.sort_unstable();
        for [start, end] in ranges {
            match self.completed.last_mut() {
                Some(last) if start <= last[1] => last[1] = last[1].max(end),
                _ => self.completed.push([start, end]),
            }
        }
    }

    /// Whether file `id` is sealed.
    #[must_use]
    pub fn is_completed(&self, id: u32) -> bool {
        let after = self.completed.partition_point(|&[start, _]| start <= id);
        after > 0 && id < self.completed[after - 1][1]
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
        for (position, name) in self.segments.iter().enumerate() {
            if !store.manifest().segments.contains(name) {
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
        store.retain_segments(|name| self.segments.iter().any(|s| s == name))
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
        ckpt.record_completed(&[0, 2, 5, 3]);
        assert_eq!(ckpt.completed, [[0, 1], [2, 4], [5, 6]]);
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

    /// Why a checkpoint was refused: the error inside the one that names
    /// the file.
    fn refused(dir: &Path) -> PersistError {
        match BuildCheckpoint::load(dir) {
            Err(PersistError::Checkpoint(source)) => *source,
            other => panic!("not refused as a checkpoint: {other:?}"),
        }
    }

    #[test]
    fn corrupt_and_versioned_checkpoints_are_rejected() {
        let dir = TempDir::new("corrupt");
        fs::write(dir.0.join(CHECKPOINT_FILE), "{ nope").unwrap();
        assert!(matches!(refused(&dir.0), PersistError::Corrupt(_)));

        // 1 was the version before it followed the segment version.
        for version in [1, SEGMENT_VERSION - 1, 99] {
            let bad = BuildCheckpoint { version, ..BuildCheckpoint::new(1) };
            fs::write(dir.0.join(CHECKPOINT_FILE), serde_json::to_string(&bad).unwrap()).unwrap();
            assert!(matches!(
                refused(&dir.0),
                PersistError::UnsupportedVersion { found, .. } if found == version
            ));
        }
    }

    #[test]
    fn a_refused_checkpoint_names_its_file_and_the_way_out() {
        let dir = TempDir::new("refused");
        let old = BuildCheckpoint { version: 12, ..BuildCheckpoint::new(1) };
        fs::write(dir.0.join(CHECKPOINT_FILE), serde_json::to_string(&old).unwrap()).unwrap();
        let message = BuildCheckpoint::load(&dir.0).unwrap_err().to_string();
        assert!(
            message.starts_with("checkpoint.json: unsupported format version 12 (expected 13)"),
            "{message}"
        );
        assert!(message.contains("a fresh `dsearch build` (without --resume)"), "{message}");
        fs::write(dir.0.join(CHECKPOINT_FILE), "{ nope").unwrap();
        let message = BuildCheckpoint::load(&dir.0).unwrap_err().to_string();
        assert!(message.starts_with("checkpoint.json: corrupt persisted data: "), "{message}");
    }

    #[test]
    fn completed_ranges_coalesce_and_hostile_ones_are_refused() {
        let dir = TempDir::new("ranges");
        let mut ckpt = BuildCheckpoint::new(7);
        // Seals of two extractors, dealt round robin: one range in the end.
        for ids in [[0, 2], [1, 3], [5, 7], [4, 6]] {
            ckpt.record_completed(&ids);
        }
        assert_eq!(ckpt.completed, [[0, 8]]);
        ckpt.record_completed(&[10, 11, 12, 20]);
        assert_eq!(ckpt.completed, [[0, 8], [10, 13], [20, 21]]);
        let sealed: Vec<u32> = (0..25).filter(|&id| ckpt.is_completed(id)).collect();
        assert_eq!(sealed, [0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 20]);
        ckpt.save(&dir.0).unwrap();
        assert_eq!(BuildCheckpoint::load(&dir.0).unwrap(), Some(ckpt.clone()));

        // Overlapping, unsorted, empty and reversed ranges: an error, never
        // a panic.
        for hostile in [
            vec![[0, 5], [4, 8]],
            vec![[10, 13], [0, 8]],
            vec![[3, 3]],
            vec![[5, 2]],
            vec![[0, 8], [8, 9], [7, 10]],
        ] {
            let bad = BuildCheckpoint { completed: hostile.clone(), ..ckpt.clone() };
            fs::write(dir.0.join(CHECKPOINT_FILE), serde_json::to_string(&bad).unwrap()).unwrap();
            assert!(matches!(refused(&dir.0), PersistError::Corrupt(_)), "{hostile:?}");
        }
        // Adjacent ranges are disjoint.
        let adjacent = BuildCheckpoint { completed: vec![[0, 8], [8, 9]], ..ckpt };
        adjacent.save(&dir.0).unwrap();
        assert!(BuildCheckpoint::load(&dir.0).unwrap().unwrap().is_completed(8));
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
        store.start(&docs).unwrap();
        let first = store.append(std::slice::from_ref(&index), &docs).unwrap();
        // Simulate a crash after a second commit but before the checkpoint
        // write: the manifest has an orphan the checkpoint never recorded.
        store.append(std::slice::from_ref(&index), &docs).unwrap();
        assert_eq!(store.segment_count(), 2);

        let mut ckpt = BuildCheckpoint::new(1);
        ckpt.segments = vec![first.clone()];
        assert_eq!(ckpt.reconcile(&mut store).unwrap(), 1);
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.manifest().segments, std::slice::from_ref(&first));

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
