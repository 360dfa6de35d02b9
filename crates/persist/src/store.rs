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
//! Each commit writes one segment, and a run is one commit however it was
//! built: Implementation 3 (replicate, never join) leaves one replica per
//! extractor in memory, and [`IndexStore::commit_all`] merges them as they
//! are sealed into the one segment their join would be written as — no hash
//! table is joined, and the store does not say how many threads built it.
//! [`IndexStore::commit`] is the same call with one source.  A full rebuild
//! ([`IndexStore::replace_with`]) publishes its segment and retires every
//! earlier one by the same manifest write.
//!
//! A segment is published whole or not at all: its file is sealed (over term
//! ranges, on every core), written and synced, and only then named by **one**
//! atomic manifest write.  The segments of a store — a resumable build seals
//! one per checkpoint — are read, verified and laid out concurrently
//! ([`IndexStore::load_all`], [`IndexStore::load_all_sealed`]), and the cores
//! that fewer segments leave idle work inside them: each file is read in
//! parts at once, and its checksum and doc table are verified beside its
//! term tables.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use dsearch_index::{DocTable, InMemoryIndex, SealedShard, SectionBytes};

use crate::error::PersistError;
use crate::incremental::SignatureDb;
use crate::segment::{
    cores, read_sealed_file, read_segment_file, write_segment_tallied, SegmentInfo,
};

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

/// Runs `work` over `items` on at most `min(items, cores)` threads — the
/// caller's among them, so one item spawns nothing — and returns the results
/// in item order.  Each item is handed to `work` by value and dropped with
/// it, as soon as that item is done.
fn fan_out<I: Send, T: Send>(items: Vec<I>, cores: usize, work: impl Fn(I) -> T + Sync) -> Vec<T> {
    let threads = items.len().min(cores);
    let queue = Mutex::new(items.into_iter().enumerate());
    let drain = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().expect("the queue lock is held over `next` alone").next();
            let Some((position, item)) = next else { return done };
            done.push((position, work(item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for helper in helpers {
            done.extend(helper.join().expect("a segment worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(position, _)| position);
    done.into_iter().map(|(_, result)| result).collect()
}

fn segment_file_name(number: u64) -> String {
    format!("segment-{number:06}.dsg")
}

/// Atomically replaces `dir/name` with `contents`: written to a temp file,
/// synced, then renamed over the old file — so a crash can neither leave a
/// truncated file behind nor publish an empty one over segments that were
/// already durable.  A write that fails takes its temp file with it.
pub(crate) fn write_atomic(dir: &Path, name: &str, contents: &str) -> Result<(), PersistError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let written = fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
        fs::rename(&tmp, dir.join(name))
    });
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    Ok(written?)
}

/// Whether a manifest's segment name is a plain file name.  Every loader and
/// every `remove_file` joins it to the store root, so a separator, `..` or
/// an absolute path would reach outside the store.
fn is_plain_file_name(name: &str) -> bool {
    let mut components = Path::new(name).components();
    matches!(components.next(), Some(std::path::Component::Normal(only)) if only == name)
        && components.next().is_none()
}

/// A directory of index segments plus a manifest.
#[derive(Debug)]
pub struct IndexStore {
    root: PathBuf,
    manifest: StoreManifest,
    /// The bytes of every segment written through this handle, by section.
    written: SectionBytes,
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
            if let Some(hostile) =
                manifest.segments.iter().find(|s| !is_plain_file_name(&s.file_name))
            {
                return Err(PersistError::Corrupt(format!(
                    "manifest: segment name {:?} is not a plain file name",
                    hostile.file_name
                )));
            }
            manifest
        } else {
            StoreManifest::default()
        };
        let mut store = IndexStore { root, manifest, written: SectionBytes::default() };
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

    /// What the segments written through this handle are made of: their
    /// bytes by section, summed (a census for the one who wrote them; the
    /// manifest does not record it).
    #[must_use]
    pub fn written(&self) -> SectionBytes {
        self.written
    }

    /// Number of live segments.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.manifest.segments.len()
    }

    fn write_manifest(&mut self) -> Result<(), PersistError> {
        let json = serde_json::to_string_pretty(&self.manifest)
            .map_err(|e| PersistError::Corrupt(format!("manifest serialisation: {e}")))?;
        write_atomic(&self.root, "manifest.json", &json)
    }

    /// Commits `index` (and its doc table) as a new segment.
    ///
    /// # Errors
    ///
    /// Fails like [`commit_all`](IndexStore::commit_all).
    pub fn commit(
        &mut self,
        index: &InMemoryIndex,
        docs: &DocTable,
    ) -> Result<SegmentInfo, PersistError> {
        self.commit_all(std::slice::from_ref(index), docs)
    }

    /// Commits `index` as a new segment and also returns the segment's file
    /// name — the handle a build checkpoint records so crash recovery can
    /// tell this build's segments from orphans.
    ///
    /// # Errors
    ///
    /// Fails like [`commit_all`](IndexStore::commit_all).
    pub fn commit_named(
        &mut self,
        index: &InMemoryIndex,
        docs: &DocTable,
    ) -> Result<(String, SegmentInfo), PersistError> {
        self.publish(std::slice::from_ref(index), docs, false)
    }

    /// Commits the un-joined replicas of one run as **one** new segment: the
    /// segment of their join, merged as it is sealed
    /// ([`write_segment_merged`](crate::segment::write_segment_merged)) —
    /// so what a run stores does not say how many threads built it.
    ///
    /// # Errors
    ///
    /// Fails when the segment or the manifest cannot be written.  The store
    /// is then as it was: the manifest untouched, on disk and in memory, and
    /// the file this call created removed.
    pub fn commit_all(
        &mut self,
        replicas: &[InMemoryIndex],
        docs: &DocTable,
    ) -> Result<SegmentInfo, PersistError> {
        self.publish(replicas, docs, false).map(|(_, info)| info)
    }

    /// A run taking ownership of the store: `replicas` become the one live
    /// segment ([`commit_all`](IndexStore::commit_all)) and every earlier
    /// segment is retired by the **same** manifest write; the old files are
    /// deleted after it is durable.  A full run passes what it built; an
    /// incremental update passes the indexes it loaded from this store, the
    /// stale postings removed, followed by what it built — the seal merges
    /// them all.  The signatures an `--incremental` run left describe the
    /// segments that go, so they go too ([`SignatureDb::retire`]); a caller
    /// whose new segment they describe saves them again afterwards.
    ///
    /// # Errors
    ///
    /// Fails like [`commit_all`](IndexStore::commit_all); the old segments
    /// are live and untouched in that case (the signatures are not restored:
    /// the next `--incremental` run re-scans).
    pub fn replace_with(
        &mut self,
        replicas: &[InMemoryIndex],
        docs: &DocTable,
    ) -> Result<SegmentInfo, PersistError> {
        self.publish(replicas, docs, true).map(|(_, info)| info)
    }

    /// Seals `sources` into one segment file under the next name, syncs it
    /// and publishes it by one manifest write — beside the live segments,
    /// or, with `alone`, in their place (their files are removed once the
    /// manifest no longer names them; the signatures that describe them are
    /// removed first).  Published whole or not at all: on failure the
    /// manifest is as it was and the new file is removed.
    fn publish(
        &mut self,
        sources: &[InMemoryIndex],
        docs: &DocTable,
        alone: bool,
    ) -> Result<(String, SegmentInfo), PersistError> {
        if alone {
            SignatureDb::retire(&self.root)?;
        }
        let file_name = segment_file_name(self.manifest.next_segment);
        let path = self.root.join(&file_name);
        let before = self.manifest.clone();
        let published = fs::File::create(&path)
            .map_err(PersistError::from)
            .and_then(|mut file| {
                let written = write_segment_tallied(sources, docs, &mut file)?;
                file.sync_all()?;
                Ok(written)
            })
            .and_then(|(info, sections)| {
                if alone {
                    self.manifest.segments.clear();
                }
                self.manifest.segments.push(ManifestSegment { file_name: file_name.clone(), info });
                self.manifest.next_segment += 1;
                self.write_manifest()?;
                self.written += sections;
                Ok(info)
            });
        match published {
            Ok(info) => {
                // Best effort: a file that cannot be removed is orphaned but
                // harmless (the manifest no longer names it).
                for retired in if alone { &before.segments[..] } else { &[] } {
                    let _ = fs::remove_file(self.root.join(&retired.file_name));
                }
                Ok((file_name, info))
            }
            Err(e) => {
                self.manifest = before;
                let _ = fs::remove_file(&path);
                Err(e)
            }
        }
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

    /// Reads the segment at `position` in the manifest with `read`, which
    /// gets the open file (unbuffered: the readers take it whole, sized from
    /// its length) and the threads it may run on.  A failure names the
    /// segment's file.
    fn read_at<T>(
        &self,
        position: usize,
        threads: usize,
        read: impl Fn(fs::File, usize) -> Result<T, PersistError>,
    ) -> Result<T, PersistError> {
        let entry = self.manifest.segments.get(position).ok_or_else(|| {
            PersistError::Corrupt(format!(
                "segment index {position} out of range ({} segments)",
                self.manifest.segments.len()
            ))
        })?;
        fs::File::open(self.root.join(&entry.file_name))
            .map_err(PersistError::from)
            .and_then(|file| read(file, threads))
            .map_err(|source| PersistError::Segment {
                file_name: entry.file_name.clone(),
                source: Box::new(source),
            })
    }

    /// Reads every live segment with `read` on `cores` threads in all: the
    /// segments concurrently, one a thread, and each segment on its share of
    /// the threads that leaves (none when there are as many segments as
    /// threads).  The results come back in manifest order, or the first
    /// failure in that order.
    fn read_all<T: Send>(
        &self,
        cores: usize,
        read: impl Fn(fs::File, usize) -> Result<T, PersistError> + Sync,
    ) -> Result<Vec<T>, PersistError> {
        let positions: Vec<usize> = (0..self.segment_count()).collect();
        let each = (cores / positions.len().max(1)).max(1);
        fan_out(positions, cores, |position| self.read_at(position, each, &read))
            .into_iter()
            .collect()
    }

    /// Loads one segment by its position in the manifest.
    ///
    /// # Errors
    ///
    /// Fails when `position` is out of range or the segment file is missing
    /// or corrupt.
    pub fn load_segment(&self, position: usize) -> Result<(InMemoryIndex, DocTable), PersistError> {
        self.read_at(position, cores(), read_segment_file)
    }

    /// Loads every live segment, concurrently, in manifest order.
    ///
    /// # Errors
    ///
    /// Fails when any segment is missing or corrupt; the error is the first
    /// in manifest order and names the segment's file.
    pub fn load_all(&self) -> Result<Vec<(InMemoryIndex, DocTable)>, PersistError> {
        self.read_all(cores(), read_segment_file)
    }

    /// Loads every live segment straight into its sealed serving form,
    /// concurrently, in manifest order.
    ///
    /// # Errors
    ///
    /// Fails like [`load_all`](IndexStore::load_all).
    pub fn load_all_sealed(&self) -> Result<Vec<(SealedShard, DocTable)>, PersistError> {
        self.read_all(cores(), read_sealed_file)
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
        self.read_at(position, cores(), read_sealed_file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_index::{join_all, FileId};
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

        let joined =
            join_all(store.load_all().unwrap().into_iter().map(|(index, _)| index).collect());
        assert_eq!(joined.postings(&Term::from("common")).unwrap().len(), 8);

        // The same replicas committed as one run are one segment: that join.
        let info = store.replace_with(&[replica_a, replica_b], &docs).unwrap();
        assert_eq!(store.segment_count(), 1);
        assert_eq!(info.doc_count, 8);
        let (merged, _) = store.load_segment(0).unwrap();
        assert_eq!(merged, joined);
        // Old segment files are gone.
        let remaining: Vec<_> = fs::read_dir(store.root())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".dsg"))
            .collect();
        assert_eq!(remaining.len(), 1);
    }

    #[test]
    fn replace_with_swaps_the_store_contents() {
        let dir = TempDir::new("replace");
        let mut store = IndexStore::open(dir.path().join("s")).unwrap();
        let (first, first_docs) = sample(0);
        store.commit(&first, &first_docs).unwrap();
        // Signatures describe the segments beside them: a commit beside them
        // keeps them, a replacement retires them with what it replaces.
        SignatureDb::new().save(store.root()).unwrap();
        store.commit(&first, &first_docs).unwrap();
        assert_eq!(store.segment_count(), 2);
        assert!(store.root().join(crate::SIGNATURES_FILE).exists());

        let mut new_docs = DocTable::new();
        new_docs.insert("only.txt");
        let mut new_index = InMemoryIndex::new();
        new_index.insert_file(FileId(0), [Term::from("fresh")]);
        let info = store.replace_with(std::slice::from_ref(&new_index), &new_docs).unwrap();
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
        assert!(!store.root().join(crate::SIGNATURES_FILE).exists());
    }

    /// Three replicas over one doc table of nine documents.
    fn replicas() -> (Vec<InMemoryIndex>, DocTable) {
        let mut docs = DocTable::new();
        let mut replicas = vec![InMemoryIndex::new(); 3];
        for i in 0..9usize {
            let id = docs.insert(format!("doc{i}.txt"));
            replicas[i % 3].insert_file(id, [Term::from("common"), Term::from(format!("w{i}"))]);
        }
        (replicas, docs)
    }

    /// Everything in the store directory, by name.
    fn files_of(store: &IndexStore) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(store.root())
            .unwrap()
            .map(|entry| entry.unwrap())
            .filter(|entry| entry.file_type().unwrap().is_file())
            .map(|entry| {
                (entry.file_name().into_string().unwrap(), fs::read(entry.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn commit_all_leaves_what_committing_the_join_leaves() {
        let dir = TempDir::new("commit-all");
        let (replicas, docs) = replicas();
        // Behind an earlier segment, so the name is not the first.
        let (earlier, earlier_docs) = sample(0);
        let mut joined = IndexStore::open(dir.path().join("a")).unwrap();
        let mut merged = IndexStore::open(dir.path().join("b")).unwrap();
        joined.commit(&earlier, &earlier_docs).unwrap();
        merged.commit(&earlier, &earlier_docs).unwrap();

        let info = joined.commit(&join_all(replicas.clone()), &docs).unwrap();
        assert_eq!(merged.commit_all(&replicas, &docs).unwrap(), info);
        assert_eq!(merged.manifest(), joined.manifest());
        // Same names, same bytes, the manifest file included.
        assert_eq!(files_of(&merged), files_of(&joined));
        assert_eq!(files_of(&merged).len(), 3);
        assert_eq!(merged.written(), joined.written());
        // A run without replicas is the empty index.
        let empty = joined.commit(&InMemoryIndex::new(), &docs).unwrap();
        assert_eq!(merged.commit_all(&[], &docs).unwrap(), empty);
        assert_eq!(files_of(&merged), files_of(&joined));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 32,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// However a run's files were dealt to its replicas — some replicas
        /// empty, a file in two of them with different frequencies — the
        /// segment file `commit_all` writes is the one their join is
        /// committed as, and the one a sequential build of the same files is.
        #[test]
        fn a_run_is_stored_as_its_join_however_its_files_were_dealt(
            files in proptest::collection::vec(
                (0usize..5, proptest::collection::vec(("[a-d]{1,3}", 1u32..6), 0..8)),
                0..40,
            ),
            replicas in 1usize..=5,
        ) {
            let dir = TempDir::new("dealt");
            let segment_of = |name: &str, sources: &[InMemoryIndex], docs: &DocTable| {
                let mut store = IndexStore::open(dir.path().join(name)).unwrap();
                store.commit_all(sources, docs).unwrap();
                fs::read(store.root().join(segment_file_name(1))).unwrap()
            };
            let counted = |words: &[(String, u32)], more: u32| {
                let mut words = words.to_vec();
                words.sort();
                words.dedup_by(|a, b| a.0 == b.0);
                words.into_iter().map(move |(word, tf)| (Term::from(word), tf + more))
            };
            let mut docs = DocTable::new();
            let mut sequential = InMemoryIndex::new();
            let mut dealt = vec![InMemoryIndex::new(); replicas];
            for (i, (replica, words)) in files.iter().enumerate() {
                let id = docs.insert(format!("dir{}/f{i}.txt", i % 3));
                sequential.insert_file_counted(id, counted(words, 0));
                dealt[replica % replicas].insert_file_counted(id, counted(words, 0));
            }
            let merged = segment_of("merged", &dealt, &docs);
            proptest::prop_assert_eq!(&merged, &segment_of("joined", &[join_all(dealt.clone())], &docs));
            proptest::prop_assert_eq!(&merged, &segment_of("sequential", &[sequential], &docs));

            // The first file again, in the next replica, more often.
            if let Some((replica, words)) = files.first() {
                dealt[(replica + 1) % replicas].insert_file_counted(FileId(0), counted(words, 2));
                proptest::prop_assert_eq!(
                    segment_of("merged-twice", &dealt, &docs),
                    segment_of("joined-twice", &[join_all(dealt.clone())], &docs)
                );
            }
        }
    }

    #[test]
    fn a_run_is_published_whole_or_not_at_all() {
        let (replicas, docs) = replicas();
        let dir = TempDir::new("whole");
        let root = dir.path().join("s");
        let mut store = IndexStore::open(&root).unwrap();
        let (earlier, earlier_docs) = sample(0);
        store.commit(&earlier, &earlier_docs).unwrap();
        let before = files_of(&store);
        // The run's segment cannot be created: a directory is in its place.
        let blocked = root.join(segment_file_name(2));
        fs::create_dir(&blocked).unwrap();

        // Beside the old segment or in its place, a run that fails leaves
        // the manifest naming the old segment alone, in memory and for
        // whoever opens the store next, and the old file where it was.
        assert!(store.commit_all(&replicas, &docs).is_err());
        assert!(store.replace_with(&replicas, &docs).is_err());
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.manifest(), IndexStore::open(&root).unwrap().manifest());
        fs::remove_dir(&blocked).unwrap();
        assert_eq!(files_of(&store), before);

        // With the obstacle gone the same call goes through, under the
        // name the failed one had reserved.
        store.commit_all(&replicas, &docs).unwrap();
        assert_eq!(store.segment_count(), 2);
        assert_eq!(store.manifest().segments[1].file_name, "segment-000002.dsg");
        // And a run that takes the store over leaves its one file.
        store.replace_with(&replicas, &docs).unwrap();
        let names: Vec<String> = files_of(&store).into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["manifest.json", "segment-000003.dsg"]);
    }

    #[test]
    fn loads_run_in_manifest_order_and_name_the_segment_that_fails() {
        let dir = TempDir::new("load-all");
        let mut store = IndexStore::open(dir.path().join("s")).unwrap();
        let (replicas, docs) = replicas();
        for replica in &replicas {
            store.commit(replica, &docs).unwrap();
        }
        let loaded = store.load_all().unwrap();
        assert_eq!(loaded.iter().map(|(index, _)| index.clone()).collect::<Vec<_>>(), replicas);
        for (position, (shard, _)) in store.load_all_sealed().unwrap().iter().enumerate() {
            assert_eq!(shard, &SealedShard::from_index(&replicas[position]));
        }

        // Cut the middle segment short: every load of it names it.
        let victim = store.manifest().segments[1].file_name.clone();
        let path = store.root().join(&victim);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        for err in [
            store.load_all().unwrap_err(),
            store.load_all_sealed().unwrap_err(),
            store.load_segment(1).unwrap_err(),
        ] {
            assert!(
                matches!(&err, PersistError::Segment { file_name, .. } if *file_name == victim),
                "{err}"
            );
        }
        assert!(store.load_segment(0).is_ok());
    }

    #[test]
    fn a_load_on_every_core_is_the_load_on_one() {
        // Scored, and loaded whole and as four segments.
        let mut docs = DocTable::new();
        let mut replicas = vec![InMemoryIndex::new(); 4];
        for i in 0..400u32 {
            let id = docs.insert(format!("dir{}/doc{i}.txt", i % 7));
            let terms = (0..i % 9 + 1).map(|t| (Term::from(format!("w{}", (i * t) % 97)), t + 1));
            replicas[i as usize % 4].insert_file_counted(id, terms);
        }
        let dir = TempDir::new("every-core");
        let mut one = IndexStore::open(dir.path().join("one")).unwrap();
        one.commit_all(&replicas, &docs).unwrap();
        let mut four = IndexStore::open(dir.path().join("four")).unwrap();
        for replica in &replicas {
            four.commit(replica, &docs).unwrap();
        }
        for store in [&one, &four] {
            let alone = store.read_all(1, read_sealed_file).unwrap();
            assert_eq!(alone.len(), store.segment_count());
            for cores in [2, 3, 8] {
                assert_eq!(store.read_all(cores, read_sealed_file).unwrap(), alone);
            }
            assert_eq!(store.load_all_sealed().unwrap(), alone);
            let alone = store.read_all(1, read_segment_file).unwrap();
            assert_eq!(store.read_all(8, read_segment_file).unwrap(), alone);
            assert_eq!(store.load_all().unwrap(), alone);
        }
        let (shard, loaded_docs) = one.load_segment_sealed(0).unwrap();
        assert_eq!(shard, SealedShard::from_index(&join_all(replicas)));
        assert_eq!(loaded_docs, docs);
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
    fn a_manifest_naming_a_path_outside_the_store_is_refused() {
        let dir = TempDir::new("traversal");
        let root = dir.path().join("s");
        let mut store = IndexStore::open(&root).unwrap();
        let (index, docs) = sample(0);
        store.commit(&index, &docs).unwrap();
        // A victim beside the store, and a manifest whose segment name climbs
        // out to it: `clear_segments` would `remove_file` it, every loader
        // would read it.
        let victim = dir.path().join("victim.dsg");
        fs::write(&victim, b"not yours").unwrap();
        for hostile in ["../victim.dsg", "", "..", ".", "/etc/passwd", "sub/segment.dsg", "x/"] {
            let mut manifest = store.manifest().clone();
            manifest.segments[0].file_name = hostile.to_owned();
            fs::write(root.join("manifest.json"), serde_json::to_string(&manifest).unwrap())
                .unwrap();
            match IndexStore::open(&root) {
                Err(PersistError::Corrupt(message)) => {
                    assert!(message.contains("plain file name"), "{hostile:?}: {message}");
                }
                other => panic!("{hostile:?} was accepted: {:?}", other.map(|s| s.segment_count())),
            }
        }
        assert_eq!(fs::read(&victim).unwrap(), b"not yours");
        assert!(is_plain_file_name("segment-000001.dsg"));
    }

    #[test]
    fn atomic_writes_leave_no_temp_file_behind() {
        let dir = TempDir::new("atomic");
        let temp_files = |root: &Path| -> Vec<String> {
            let names = fs::read_dir(root).unwrap().map(|e| e.unwrap().file_name());
            names
                .map(|n| n.to_string_lossy().into_owned())
                .filter(|n| n.ends_with(".tmp"))
                .collect()
        };
        // On success: the manifest writes of an open and two commits.
        let mut store = IndexStore::open(dir.path().join("s")).unwrap();
        let (index, docs) = sample(0);
        store.commit(&index, &docs).unwrap();
        store.commit(&index, &docs).unwrap();
        assert!(temp_files(store.root()).is_empty());
        write_atomic(dir.path(), "plain.json", "{}").unwrap();
        assert_eq!(fs::read_to_string(dir.path().join("plain.json")).unwrap(), "{}");
        // On failure: the rename cannot replace a non-empty directory.
        fs::create_dir_all(dir.path().join("taken.json").join("child")).unwrap();
        assert!(write_atomic(dir.path(), "taken.json", "{}").is_err());
        // Nor can the temp file be created inside a directory that is missing.
        assert!(write_atomic(&dir.path().join("absent"), "x.json", "{}").is_err());
        assert!(temp_files(dir.path()).is_empty());
    }

    #[test]
    fn missing_segment_file_is_an_error() {
        let dir = TempDir::new("missing");
        let mut store = IndexStore::open(dir.path().join("s")).unwrap();
        let (index, docs) = sample(0);
        store.commit(&index, &docs).unwrap();
        fs::remove_file(store.root().join(&store.manifest().segments[0].file_name)).unwrap();
        assert!(store.load_segment(0).is_err());
        assert!(store.load_all().is_err());
    }
}
