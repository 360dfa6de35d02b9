//! The on-disk index store.
//!
//! An [`IndexStore`] is a directory containing numbered segment files plus a
//! JSON manifest:
//!
//! ```text
//! index-store/
//!   manifest.json
//!   segment-000001.dsg
//!   segment-000002.dsg
//! ```
//!
//! Each call to [`IndexStore::commit`] writes one segment.  Implementation 3
//! (replicate, never join) maps naturally onto this layout: every replica is
//! committed as its own segment and queries load them all; [`IndexStore::compact`]
//! performs the join later, off the indexing critical path — the on-disk
//! version of the paper's trade-off between Implementations 2 and 3.

use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use dsearch_index::{join_all, DocTable, InMemoryIndex, SealedShard};

use crate::error::PersistError;
use crate::segment::{read_segment, read_segment_sealed, write_segment, SegmentInfo};

/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// One segment's entry in the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestSegment {
    /// File name of the segment, relative to the store directory.
    pub file_name: String,
    /// Size/shape summary captured at commit time.
    pub info: SegmentInfo,
}

/// The store manifest: the list of live segments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreManifest {
    /// Manifest format version.
    pub version: u32,
    /// Monotonic counter used to name the next segment.
    pub next_segment: u64,
    /// Live segments in commit order.
    pub segments: Vec<ManifestSegment>,
}

impl Default for StoreManifest {
    fn default() -> Self {
        StoreManifest { version: MANIFEST_VERSION, next_segment: 1, segments: Vec::new() }
    }
}

impl StoreManifest {
    /// Total postings across all live segments.
    #[must_use]
    pub fn total_postings(&self) -> u64 {
        self.segments.iter().map(|s| s.info.posting_count).sum()
    }

    /// Total documents across all live segments.
    #[must_use]
    pub fn total_docs(&self) -> u64 {
        self.segments.iter().map(|s| s.info.doc_count).sum()
    }
}

/// A directory of index segments plus a manifest.
#[derive(Debug)]
pub struct IndexStore {
    root: PathBuf,
    manifest: StoreManifest,
}

impl IndexStore {
    /// Opens a store at `root`, creating the directory and an empty manifest
    /// when none exists.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created or the existing manifest is
    /// unreadable or of an unsupported version.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let manifest_path = root.join("manifest.json");
        let manifest = if manifest_path.exists() {
            let data = fs::read_to_string(&manifest_path)?;
            let manifest: StoreManifest = serde_json::from_str(&data)
                .map_err(|e| PersistError::Corrupt(format!("manifest: {e}")))?;
            if manifest.version != MANIFEST_VERSION {
                return Err(PersistError::UnsupportedVersion {
                    found: manifest.version,
                    expected: MANIFEST_VERSION,
                });
            }
            manifest
        } else {
            StoreManifest::default()
        };
        let mut store = IndexStore { root, manifest };
        if !manifest_path.exists() {
            store.write_manifest()?;
        }
        Ok(store)
    }

    /// The directory this store lives in.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The current manifest.
    #[must_use]
    pub fn manifest(&self) -> &StoreManifest {
        &self.manifest
    }

    /// Number of live segments.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.manifest.segments.len()
    }

    fn write_manifest(&mut self) -> Result<(), PersistError> {
        let json = serde_json::to_string_pretty(&self.manifest)
            .map_err(|e| PersistError::Corrupt(format!("manifest serialisation: {e}")))?;
        // Write-then-rename so a crash mid-write never leaves a truncated
        // manifest behind.
        let tmp = self.root.join("manifest.json.tmp");
        fs::write(&tmp, json)?;
        fs::rename(&tmp, self.root.join("manifest.json"))?;
        Ok(())
    }

    /// Commits `index` (and its doc table) as a new segment.
    ///
    /// # Errors
    ///
    /// Fails when the segment or the updated manifest cannot be written.
    pub fn commit(
        &mut self,
        index: &InMemoryIndex,
        docs: &DocTable,
    ) -> Result<SegmentInfo, PersistError> {
        self.commit_named(index, docs).map(|(_, info)| info)
    }

    /// Commits `index` as a new segment and also returns the segment's file
    /// name — the handle a build checkpoint records so crash recovery can
    /// tell this build's segments from orphans.
    ///
    /// # Errors
    ///
    /// Fails when the segment or the updated manifest cannot be written.
    pub fn commit_named(
        &mut self,
        index: &InMemoryIndex,
        docs: &DocTable,
    ) -> Result<(String, SegmentInfo), PersistError> {
        let file_name = format!("segment-{:06}.dsg", self.manifest.next_segment);
        let path = self.root.join(&file_name);
        let mut file = fs::File::create(&path)?;
        let info = write_segment(index, docs, &mut file)?;
        file.sync_all()?;
        self.manifest.next_segment += 1;
        self.manifest.segments.push(ManifestSegment { file_name: file_name.clone(), info });
        self.write_manifest()?;
        Ok((file_name, info))
    }

    /// Keeps only the segments whose file name satisfies `keep`; the rest are
    /// dropped from the manifest and their files deleted (best effort).
    ///
    /// # Errors
    ///
    /// Fails when the pruned manifest cannot be written; the manifest is left
    /// unchanged in that case.
    pub fn retain_segments(&mut self, keep: impl Fn(&str) -> bool) -> Result<usize, PersistError> {
        let (kept, dropped): (Vec<_>, Vec<_>) = std::mem::take(&mut self.manifest.segments)
            .into_iter()
            .partition(|s| keep(&s.file_name));
        let removed = dropped.len();
        self.manifest.segments = kept;
        if removed > 0 {
            if let Err(e) = self.write_manifest() {
                self.manifest.segments.extend(dropped);
                return Err(e);
            }
            for entry in dropped {
                let _ = fs::remove_file(self.root.join(&entry.file_name));
            }
        }
        Ok(removed)
    }

    /// Removes every live segment (a fresh build taking ownership of the
    /// store).
    ///
    /// # Errors
    ///
    /// Fails when the emptied manifest cannot be written.
    pub fn clear_segments(&mut self) -> Result<usize, PersistError> {
        self.retain_segments(|_| false)
    }

    /// Opens the file of the segment at `position` in the manifest (unbuffered:
    /// the readers take it whole, sized from its length).
    fn open_segment(&self, position: usize) -> Result<fs::File, PersistError> {
        let entry = self.manifest.segments.get(position).ok_or_else(|| {
            PersistError::Corrupt(format!(
                "segment index {position} out of range ({} segments)",
                self.manifest.segments.len()
            ))
        })?;
        Ok(fs::File::open(self.root.join(&entry.file_name))?)
    }

    /// Loads one segment by its position in the manifest.
    ///
    /// # Errors
    ///
    /// Fails when `position` is out of range or the segment file is missing
    /// or corrupt.
    pub fn load_segment(&self, position: usize) -> Result<(InMemoryIndex, DocTable), PersistError> {
        read_segment(self.open_segment(position)?)
    }

    /// Loads every live segment.
    ///
    /// # Errors
    ///
    /// Fails when any segment is missing or corrupt.
    pub fn load_all(&self) -> Result<Vec<(InMemoryIndex, DocTable)>, PersistError> {
        (0..self.segment_count()).map(|i| self.load_segment(i)).collect()
    }

    /// Loads one segment straight into its sealed (block-compressed) serving
    /// form — no posting is decompressed on the way.
    ///
    /// # Errors
    ///
    /// Fails when `position` is out of range or the segment file is missing
    /// or corrupt.
    pub fn load_segment_sealed(
        &self,
        position: usize,
    ) -> Result<(SealedShard, DocTable), PersistError> {
        read_segment_sealed(self.open_segment(position)?)
    }

    /// Loads all segments and joins them into one index.
    ///
    /// Document tables are concatenated in segment order; document ids are
    /// only meaningful when every segment was produced from the same doc
    /// table (the normal case: replicas of one run).
    ///
    /// # Errors
    ///
    /// Fails when any segment is missing or corrupt.
    pub fn load_joined(&self) -> Result<(InMemoryIndex, DocTable), PersistError> {
        let mut indices = Vec::with_capacity(self.segment_count());
        let mut docs = DocTable::new();
        for (i, (index, segment_docs)) in self.load_all()?.into_iter().enumerate() {
            indices.push(index);
            if i == 0 || docs.is_empty() || segment_docs.len() > docs.len() {
                docs = segment_docs;
            }
        }
        Ok((join_all(indices), docs))
    }

    /// Replaces every live segment with a single segment holding `index`.
    ///
    /// This is the incremental-indexing commit: the caller loaded the joined
    /// index, brought it up to date, and stores the result as the new sole
    /// segment.  Old segment files are deleted after the new one is safely on
    /// disk.
    ///
    /// # Errors
    ///
    /// Fails when the new segment or the manifest cannot be written; the old
    /// segments are left untouched in that case.
    pub fn replace_all(
        &mut self,
        index: &InMemoryIndex,
        docs: &DocTable,
    ) -> Result<SegmentInfo, PersistError> {
        let old_segments = std::mem::take(&mut self.manifest.segments);
        match self.commit(index, docs) {
            Ok(info) => {
                for entry in &old_segments {
                    let _ = fs::remove_file(self.root.join(&entry.file_name));
                }
                Ok(info)
            }
            Err(e) => {
                // Restore the manifest view of the old segments.
                self.manifest.segments = old_segments;
                Err(e)
            }
        }
    }

    /// Replaces every live segment with one joined segment.
    ///
    /// Returns the new segment's summary.  The replaced segment files are
    /// deleted from disk.
    ///
    /// # Errors
    ///
    /// Fails when a segment cannot be read or the new segment cannot be
    /// written; in that case the old segments are left untouched.
    pub fn compact(&mut self) -> Result<SegmentInfo, PersistError> {
        let (joined, docs) = self.load_joined()?;
        let old_segments = std::mem::take(&mut self.manifest.segments);
        let info = self.commit(&joined, &docs)?;
        for entry in old_segments {
            // Best effort: a segment that cannot be removed is orphaned but
            // harmless (it is no longer referenced by the manifest).
            let _ = fs::remove_file(self.root.join(&entry.file_name));
        }
        Ok(info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_index::FileId;
    use dsearch_text::Term;

    /// Minimal scoped temp dir (std-only, no extra dependency).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let mut path = std::env::temp_dir();
            let unique = format!(
                "dsearch-store-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            );
            path.push(unique.replace(['(', ')', ' '], ""));
            let _ = fs::remove_dir_all(&path);
            fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample(offset: u32) -> (InMemoryIndex, DocTable) {
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for i in 0..4u32 {
            let _ = docs.insert(format!("doc{}.txt", offset + i));
            index.insert_file(
                FileId(offset + i),
                [Term::from(format!("word{}", i % 3)), Term::from("common")],
            );
        }
        (index, docs)
    }

    #[test]
    fn open_creates_directory_and_manifest() {
        let dir = TempDir::new("open");
        let store_root = dir.path().join("store");
        let store = IndexStore::open(&store_root).unwrap();
        assert!(store_root.join("manifest.json").exists());
        assert_eq!(store.segment_count(), 0);
        assert_eq!(store.root(), store_root.as_path());
        assert_eq!(store.manifest().total_docs(), 0);
    }

    #[test]
    fn commit_and_reload_round_trips() {
        let dir = TempDir::new("commit");
        let mut store = IndexStore::open(dir.path().join("s")).unwrap();
        let (index, docs) = sample(0);
        let info = store.commit(&index, &docs).unwrap();
        assert_eq!(info.doc_count, 4);
        assert_eq!(store.segment_count(), 1);

        let (loaded, loaded_docs) = store.load_segment(0).unwrap();
        assert_eq!(loaded, index);
        assert_eq!(loaded_docs.len(), docs.len());
        assert!(store.load_segment(1).is_err());
    }

    #[test]
    fn store_reopens_with_existing_segments() {
        let dir = TempDir::new("reopen");
        let root = dir.path().join("s");
        {
            let mut store = IndexStore::open(&root).unwrap();
            let (index, docs) = sample(0);
            store.commit(&index, &docs).unwrap();
        }
        let store = IndexStore::open(&root).unwrap();
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.manifest().total_docs(), 4);
        let (index, _) = store.load_segment(0).unwrap();
        assert!(index.contains_term(&Term::from("common")));
    }

    #[test]
    fn multiple_segments_join_like_replicas() {
        let dir = TempDir::new("join");
        let mut store = IndexStore::open(dir.path().join("s")).unwrap();
        // Two replicas that share one logical doc table (ids 0..8).
        let mut docs = DocTable::new();
        for i in 0..8 {
            docs.insert(format!("doc{i}.txt"));
        }
        let mut replica_a = InMemoryIndex::new();
        let mut replica_b = InMemoryIndex::new();
        for i in 0..8u32 {
            let target = if i % 2 == 0 { &mut replica_a } else { &mut replica_b };
            target.insert_file(FileId(i), [Term::from("common"), Term::from(format!("w{i}"))]);
        }
        store.commit(&replica_a, &docs).unwrap();
        store.commit(&replica_b, &docs).unwrap();
        assert_eq!(store.segment_count(), 2);

        let (joined, joined_docs) = store.load_joined().unwrap();
        assert_eq!(joined.postings(&Term::from("common")).unwrap().len(), 8);
        assert_eq!(joined_docs.len(), 8);

        let info = store.compact().unwrap();
        assert_eq!(store.segment_count(), 1);
        assert_eq!(info.doc_count, 8);
        let (compacted, _) = store.load_segment(0).unwrap();
        assert_eq!(compacted, joined);
        // Old segment files are gone.
        let remaining: Vec<_> = fs::read_dir(store.root())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".dsg"))
            .collect();
        assert_eq!(remaining.len(), 1);
    }

    #[test]
    fn replace_all_swaps_the_store_contents() {
        let dir = TempDir::new("replace");
        let mut store = IndexStore::open(dir.path().join("s")).unwrap();
        let (first, first_docs) = sample(0);
        store.commit(&first, &first_docs).unwrap();
        store.commit(&first, &first_docs).unwrap();
        assert_eq!(store.segment_count(), 2);

        let mut new_docs = DocTable::new();
        new_docs.insert("only.txt");
        let mut new_index = InMemoryIndex::new();
        new_index.insert_file(FileId(0), [Term::from("fresh")]);
        let info = store.replace_all(&new_index, &new_docs).unwrap();
        assert_eq!(info.doc_count, 1);
        assert_eq!(store.segment_count(), 1);
        let (loaded, loaded_docs) = store.load_segment(0).unwrap();
        assert_eq!(loaded, new_index);
        assert_eq!(loaded_docs.len(), 1);
        // Only one segment file remains on disk.
        let remaining = fs::read_dir(store.root())
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".dsg"))
            .count();
        assert_eq!(remaining, 1);
    }

    #[test]
    fn corrupt_manifest_is_reported() {
        let dir = TempDir::new("corrupt");
        let root = dir.path().join("s");
        IndexStore::open(&root).unwrap();
        fs::write(root.join("manifest.json"), b"{ not json").unwrap();
        assert!(matches!(IndexStore::open(&root), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn unsupported_manifest_version_is_rejected() {
        let dir = TempDir::new("version");
        let root = dir.path().join("s");
        IndexStore::open(&root).unwrap();
        let manifest = StoreManifest { version: 99, ..StoreManifest::default() };
        fs::write(root.join("manifest.json"), serde_json::to_string(&manifest).unwrap()).unwrap();
        assert!(matches!(
            IndexStore::open(&root),
            Err(PersistError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn missing_segment_file_is_an_error() {
        let dir = TempDir::new("missing");
        let mut store = IndexStore::open(dir.path().join("s")).unwrap();
        let (index, docs) = sample(0);
        store.commit(&index, &docs).unwrap();
        fs::remove_file(store.root().join(&store.manifest().segments[0].file_name)).unwrap();
        assert!(store.load_segment(0).is_err());
        assert!(store.load_joined().is_err());
    }
}
