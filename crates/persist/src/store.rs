//! The on-disk index store.
//!
//! An [`IndexStore`] is a directory holding one document table, any number
//! of segments over it, and a JSON manifest naming them:
//!
//! ```text
//! index-store/
//!   manifest.json         {version, next_segment, docs, segments: [names]}
//!   docs-000001.dsd       the doc table: every path and its id
//!   segment-000002.dsg    terms only, over that table
//!   segment-000003.dsg
//! ```
//!
//! Stage 1 numbers every file before any is extracted, so a run's document
//! table is whole before its first segment is sealed and is written once:
//! with the run's one segment ([`IndexStore::replace_with`]), or alone when a
//! checkpointed build starts ([`IndexStore::start`]) and seals segments over
//! it later ([`IndexStore::append`]).  Each file is written under a name
//! never used before, synced, and only then named by **one** atomic manifest
//! write, which also retires the files a new doc table replaces.  A load
//! reads the segments concurrently — each in parts, its checksum verified
//! beside its terms, on the cores fewer segments leave idle — decodes the
//! doc file beside the first one's terms, and refuses a segment over another
//! count of documents.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use dsearch_index::{DocTable, InMemoryIndex, SealedShard, SectionBytes};

use crate::error::PersistError;
use crate::incremental::SignatureDb;
use crate::segment::{
    cores, into_index, read_docs, read_segment_file, write_docs, write_segment_merged, FrontMatter,
    SegmentInfo,
};

/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 2;

/// The store manifest: the doc file and the live segments, by file name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreManifest {
    /// Manifest format version.
    pub version: u32,
    /// Monotonic counter used to name the next file.
    pub next_segment: u64,
    /// The doc file every segment is over; none before the store is first
    /// written.
    pub docs: Option<String>,
    /// Live segments in commit order.
    pub segments: Vec<String>,
}

impl Default for StoreManifest {
    fn default() -> Self {
        StoreManifest {
            version: MANIFEST_VERSION,
            next_segment: 1,
            docs: None,
            segments: Vec::new(),
        }
    }
}

/// A version-1 manifest (`version` alone, of any other): segments named
/// beside summaries.  Its segments are of version 11, which a load refuses
/// by name and a full run retires.
#[derive(Deserialize)]
struct ManifestV1 {
    version: u32,
    next_segment: Option<u64>,
    segments: Option<Vec<NamedV1>>,
}

#[derive(Deserialize)]
struct NamedV1 {
    file_name: String,
}

impl StoreManifest {
    /// Parses a manifest; a version-1 one as its segment names, with no doc
    /// file.
    fn parse(json: &str) -> Result<Self, PersistError> {
        let corrupt = |e: serde_json::Error| PersistError::Corrupt(format!("manifest: {e}"));
        let manifest = match serde_json::from_str::<ManifestV1>(json) {
            Ok(ManifestV1 {
                version: 1,
                next_segment: Some(next_segment),
                segments: Some(old),
            }) => {
                let segments = old.into_iter().map(|s| s.file_name).collect();
                StoreManifest { next_segment, segments, ..StoreManifest::default() }
            }
            Ok(ManifestV1 { version: MANIFEST_VERSION, .. }) | Err(_) => {
                serde_json::from_str(json).map_err(corrupt)?
            }
            Ok(ManifestV1 { version: found, .. }) => {
                return Err(PersistError::UnsupportedVersion { found, expected: MANIFEST_VERSION })
            }
        };
        if let Some(hostile) =
            manifest.docs.iter().chain(&manifest.segments).find(|name| !is_plain_file_name(name))
        {
            return Err(PersistError::Corrupt(format!(
                "manifest: file name {hostile:?} is not a plain file name"
            )));
        }
        Ok(manifest)
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

fn docs_file_name(number: u64) -> String {
    format!("docs-{number:06}.dsd")
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

/// A loaded segment as a shard, and its doc count.
fn sealed((shard, front): (SealedShard, FrontMatter)) -> Result<(SealedShard, u64), PersistError> {
    Ok((shard, front.doc_count))
}

/// `source`, as an error of the store's file `name`.
fn named(name: &str, source: PersistError) -> PersistError {
    PersistError::File { file_name: name.to_owned(), source: Box::new(source) }
}

/// Whether a manifest's file name is a plain file name.  Every loader and
/// every `remove_file` joins it to the store root, so a separator, `..` or
/// an absolute path would reach outside the store.
fn is_plain_file_name(name: &str) -> bool {
    let mut components = Path::new(name).components();
    matches!(components.next(), Some(std::path::Component::Normal(only)) if only == name)
        && components.next().is_none()
}

/// A directory of index segments over one doc table, plus a manifest.
#[derive(Debug)]
pub struct IndexStore {
    root: PathBuf,
    manifest: StoreManifest,
    /// The bytes of every file written through this handle, by section.
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
            StoreManifest::parse(&fs::read_to_string(&manifest_path)?)?
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

    /// What the files written through this handle are made of: their bytes
    /// by section, summed (a census for the one who wrote them; the manifest
    /// does not record it).
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

    /// [`replace_with`](IndexStore::replace_with) of one index (the
    /// benchmark's staged build persists through it).
    ///
    /// # Errors
    ///
    /// Fails like [`replace_with`](IndexStore::replace_with).
    pub fn commit(
        &mut self,
        index: &InMemoryIndex,
        docs: &DocTable,
    ) -> Result<SegmentInfo, PersistError> {
        self.replace_with(std::slice::from_ref(index), docs)
    }

    /// A run taking ownership of the store: `docs` becomes its doc file and
    /// `replicas` its one segment, the segment of their join, merged as it is
    /// sealed ([`write_segment_merged`]).
    /// Every earlier file is retired by the **same** manifest write and
    /// deleted after it is durable, the signatures that describe them first
    /// ([`SignatureDb::retire`]; a caller whose new segment they describe
    /// saves them again).  An incremental update passes the indexes it loaded,
    /// the stale postings removed, then what it built.
    ///
    /// # Errors
    ///
    /// Fails when a file or the manifest cannot be written; the store is then
    /// as it was, but for the signatures (the next `--incremental` re-scans).
    pub fn replace_with(
        &mut self,
        replicas: &[InMemoryIndex],
        docs: &DocTable,
    ) -> Result<SegmentInfo, PersistError> {
        let (_, info) = self.publish(Some(docs), Some((replicas, docs.len())))?.expect("a segment");
        Ok(info)
    }

    /// A checkpointed build taking the store over before it extracts a file:
    /// `docs`, Stage 1's table, becomes the doc file, with no segment; the
    /// rest is retired as by [`replace_with`](IndexStore::replace_with).
    ///
    /// # Errors
    ///
    /// Fails like [`replace_with`](IndexStore::replace_with).
    pub fn start(&mut self, docs: &DocTable) -> Result<(), PersistError> {
        self.publish(Some(docs), None).map(drop)
    }

    /// Seals `replicas` into one segment over `docs`, the store's table (a
    /// load refuses a segment over another count of documents), beside the
    /// live segments.  Returns its file name, which a build checkpoint
    /// records so crash recovery can tell the build's segments from orphans.
    ///
    /// # Errors
    ///
    /// Fails when the segment or the manifest cannot be written; the store
    /// is then as it was.
    pub fn append(
        &mut self,
        replicas: &[InMemoryIndex],
        docs: &DocTable,
    ) -> Result<String, PersistError> {
        let (name, _) = self.publish(None, Some((replicas, docs.len())))?.expect("a segment");
        Ok(name)
    }

    /// Writes a doc file of `docs`, which takes the store over, and a segment
    /// of `sources` over so many documents, under the next number, and names
    /// them by one manifest write.  Published whole or not at all: on failure
    /// the manifest is as it was and the files of this number, which no
    /// manifest has named, are removed.
    fn publish(
        &mut self,
        docs: Option<&DocTable>,
        segment: Option<(&[InMemoryIndex], usize)>,
    ) -> Result<Option<(String, SegmentInfo)>, PersistError> {
        if docs.is_some() {
            SignatureDb::retire(&self.root)?;
        }
        let before = self.manifest.clone();
        let names = [docs_file_name(before.next_segment), segment_file_name(before.next_segment)];
        let published = self.write_files(&names, docs, segment).and_then(|written| {
            if docs.is_some() {
                self.manifest.docs = Some(names[0].clone());
                self.manifest.segments.clear();
            }
            self.manifest.segments.extend(written.1.map(|_| names[1].clone()));
            self.manifest.next_segment += 1;
            self.write_manifest().map(|()| written)
        });
        let (sections, info) = match published {
            Ok(written) => written,
            Err(e) => {
                self.manifest = before;
                for name in names {
                    let _ = fs::remove_file(self.root.join(name));
                }
                return Err(e);
            }
        };
        self.written += sections;
        // Best effort: a file that cannot be removed is orphaned but
        // harmless (the manifest no longer names it).
        for retired in before.docs.iter().chain(&before.segments).filter(|_| docs.is_some()) {
            let _ = fs::remove_file(self.root.join(retired));
        }
        Ok(info.map(|info| (names[1].clone(), info)))
    }

    /// Creates, writes and syncs the files [`publish`](IndexStore::publish)
    /// names `names`; returns what they are made of.
    fn write_files(
        &self,
        names: &[String; 2],
        docs: Option<&DocTable>,
        segment: Option<(&[InMemoryIndex], usize)>,
    ) -> Result<(SectionBytes, Option<SegmentInfo>), PersistError> {
        let mut sections = SectionBytes::default();
        if let Some(docs) = docs {
            let mut file = fs::File::create(self.root.join(&names[0]))?;
            sections.docs += write_docs(docs, &mut file)?;
            file.sync_all()?;
        }
        let Some((sources, doc_count)) = segment else { return Ok((sections, None)) };
        let mut file = fs::File::create(self.root.join(&names[1]))?;
        let (info, tally) = write_segment_merged(sources, doc_count, &mut file)?;
        file.sync_all()?;
        sections += tally;
        Ok((sections, Some(info)))
    }

    /// Keeps only the segments whose file name satisfies `keep`; the rest are
    /// dropped from the manifest and their files deleted (best effort).
    ///
    /// # Errors
    ///
    /// Fails when the pruned manifest cannot be written; the manifest is left
    /// unchanged in that case.
    pub fn retain_segments(&mut self, keep: impl Fn(&str) -> bool) -> Result<usize, PersistError> {
        let (kept, dropped): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.manifest.segments).into_iter().partition(|name| keep(name));
        let removed = dropped.len();
        self.manifest.segments = kept;
        if removed > 0 {
            if let Err(e) = self.write_manifest() {
                self.manifest.segments.extend(dropped);
                return Err(e);
            }
            for name in dropped {
                let _ = fs::remove_file(self.root.join(name));
            }
        }
        Ok(removed)
    }

    /// Loads the store's doc table alone (empty before the store is first
    /// written).
    ///
    /// # Errors
    ///
    /// Fails when the doc file is missing or corrupt, naming it.
    pub fn load_docs(&self) -> Result<DocTable, PersistError> {
        let Some(name) = &self.manifest.docs else { return Ok(DocTable::new()) };
        let file = fs::File::open(self.root.join(name)).map_err(PersistError::from);
        file.and_then(read_docs).map_err(|source| named(name, source))
    }

    /// Reads every live segment, lifted by `lift`, on `cores` threads in all,
    /// and the doc table: the segments concurrently, one a thread, each on
    /// its share of the threads left, and the doc file beside the first
    /// one's term tables.  The segments come back in manifest order beside
    /// the table, or the first failure, the doc file's first; a segment over
    /// another count of documents than the table's is one.
    fn read_all<T: Send>(
        &self,
        cores: usize,
        lift: impl Fn((SealedShard, FrontMatter)) -> Result<(T, u64), PersistError> + Sync,
    ) -> Result<(Vec<T>, DocTable), PersistError> {
        let segments = &self.manifest.segments;
        let each = (cores / segments.len().max(1)).max(1);
        let load_docs = || Some(self.load_docs());
        let parts = fan_out(segments.iter().enumerate().collect(), cores, |(position, name)| {
            let path = self.root.join(name);
            let (segment, docs) = match position {
                0 => read_segment_file(&path, each, &load_docs),
                _ => read_segment_file(&path, each, &|| None),
            };
            (segment.and_then(&lift).map_err(|source| named(name, source)), docs)
        });
        let (mut loaded, mut docs) = (Vec::with_capacity(segments.len()), None);
        for ((segment, table), name) in parts.into_iter().zip(segments) {
            if let Some(table) = table {
                docs = Some(table?);
            }
            let table = docs.as_ref().expect("the first segment's load decodes the table");
            let (segment, count) = segment?;
            if count != table.len() as u64 {
                let why = format!("over {count} documents, not the doc file's {}", table.len());
                return Err(named(name, PersistError::Corrupt(why)));
            }
            loaded.push(segment);
        }
        Ok((loaded, docs.map_or_else(|| self.load_docs(), Ok)?))
    }

    /// Loads every live segment, concurrently, in manifest order, and the
    /// one doc table they are over.
    ///
    /// # Errors
    ///
    /// Fails when the doc file or any segment is missing or corrupt, or a
    /// segment is over another count of documents; the error is the first
    /// in manifest order and names the file.
    pub fn load_all(&self) -> Result<(Vec<InMemoryIndex>, DocTable), PersistError> {
        self.read_all(cores(), into_index)
    }

    /// Loads every live segment straight into its sealed serving form,
    /// concurrently, in manifest order, and the one doc table they are over.
    ///
    /// # Errors
    ///
    /// Fails like [`load_all`](IndexStore::load_all).
    pub fn load_all_sealed(&self) -> Result<(Vec<SealedShard>, DocTable), PersistError> {
        self.read_all(cores(), sealed)
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
                FileId(i),
                [Term::from(format!("word{}", i % 3)), Term::from("common")],
            );
        }
        (index, docs)
    }

    /// `index` as the store's whole content.
    fn replace(store: &mut IndexStore, index: &InMemoryIndex, docs: &DocTable) -> SegmentInfo {
        store.replace_with(std::slice::from_ref(index), docs).unwrap()
    }

    #[test]
    fn open_creates_directory_and_manifest() {
        let dir = TempDir::new("open");
        let store_root = dir.path().join("store");
        let store = IndexStore::open(&store_root).unwrap();
        assert!(store_root.join("manifest.json").exists());
        assert_eq!(store.segment_count(), 0);
        assert_eq!(store.root(), store_root.as_path());
        assert_eq!(store.manifest().docs, None);
        let (segments, docs) = store.load_all().unwrap();
        assert!(segments.is_empty() && docs.is_empty());
    }

    #[test]
    fn commit_and_reload_round_trips() {
        let dir = TempDir::new("commit");
        let mut store = IndexStore::open(dir.path().join("s")).unwrap();
        let (index, docs) = sample(0);
        let info = replace(&mut store, &index, &docs);
        assert_eq!(info.doc_count, 4);
        assert_eq!(store.segment_count(), 1);
        // The doc file and the segment share the publication's number.
        let manifest = store.manifest();
        assert_eq!(manifest.docs.as_deref(), Some("docs-000001.dsd"));
        assert_eq!(manifest.segments, ["segment-000001.dsg"]);
        assert_eq!(manifest.next_segment, 2);

        let (loaded, loaded_docs) = store.load_all().unwrap();
        assert_eq!(loaded, [index]);
        assert_eq!(loaded_docs, docs);
        assert_eq!(store.load_docs().unwrap(), docs);
    }

    #[test]
    fn store_reopens_with_existing_segments() {
        let dir = TempDir::new("reopen");
        let root = dir.path().join("s");
        {
            let mut store = IndexStore::open(&root).unwrap();
            let (index, docs) = sample(0);
            replace(&mut store, &index, &docs);
        }
        let store = IndexStore::open(&root).unwrap();
        assert_eq!(store.segment_count(), 1);
        let (indexes, docs) = store.load_all().unwrap();
        assert_eq!(docs.len(), 4);
        assert!(indexes[0].contains_term(&Term::from("common")));
    }

    #[test]
    fn multiple_segments_join_like_replicas() {
        let dir = TempDir::new("join");
        let mut store = IndexStore::open(dir.path().join("s")).unwrap();
        // Two replicas over one doc table (ids 0..8), appended one by one.
        let (replicas, docs) = replicas(2, 8);
        store.start(&docs).unwrap();
        for replica in &replicas {
            store.append(std::slice::from_ref(replica), &docs).unwrap();
        }
        assert_eq!(store.segment_count(), 2);

        let (indexes, loaded_docs) = store.load_all().unwrap();
        assert_eq!(loaded_docs, docs);
        let joined = join_all(indexes);
        assert_eq!(joined.postings(&Term::from("common")).unwrap().len(), 8);

        // The same replicas stored as one run are one segment: that join.
        let info = store.replace_with(&replicas, &docs).unwrap();
        assert_eq!(store.segment_count(), 1);
        assert_eq!(info.doc_count, 8);
        let (merged, _) = store.load_all().unwrap();
        assert_eq!(merged, [joined]);
        // The old files are gone: one doc file, one segment.
        let names: Vec<String> = files_of(&store).into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["docs-000004.dsd", "manifest.json", "segment-000004.dsg"]);
    }

    #[test]
    fn replace_with_swaps_the_store_contents() {
        let dir = TempDir::new("replace");
        let mut store = IndexStore::open(dir.path().join("s")).unwrap();
        let (first, first_docs) = sample(0);
        store.start(&first_docs).unwrap();
        // Signatures describe the segments beside them: a segment appended
        // beside them keeps them, a replacement retires them with what it
        // replaces.
        SignatureDb::new().save(store.root()).unwrap();
        store.append(std::slice::from_ref(&first), &first_docs).unwrap();
        store.append(std::slice::from_ref(&first), &first_docs).unwrap();
        assert_eq!(store.segment_count(), 2);
        assert!(store.root().join(crate::SIGNATURES_FILE).exists());

        let mut new_docs = DocTable::new();
        new_docs.insert("only.txt");
        let mut new_index = InMemoryIndex::new();
        new_index.insert_file(FileId(0), [Term::from("fresh")]);
        let info = replace(&mut store, &new_index, &new_docs);
        assert_eq!(info.doc_count, 1);
        assert_eq!(store.segment_count(), 1);
        let (loaded, loaded_docs) = store.load_all().unwrap();
        assert_eq!(loaded, [new_index]);
        assert_eq!(loaded_docs, new_docs);
        // One segment and one doc file remain on disk.
        let names: Vec<String> = files_of(&store).into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["docs-000004.dsd", "manifest.json", "segment-000004.dsg"]);
        assert!(!store.root().join(crate::SIGNATURES_FILE).exists());

        // A build starting over takes the store over too: its table, no
        // segment.
        SignatureDb::new().save(store.root()).unwrap();
        store.start(&first_docs).unwrap();
        let names: Vec<String> = files_of(&store).into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["docs-000005.dsd", "manifest.json"]);
        assert_eq!(store.load_all().unwrap(), (Vec::new(), first_docs));
    }

    /// `count` replicas over one doc table of `docs` documents.
    fn replicas(count: usize, docs: usize) -> (Vec<InMemoryIndex>, DocTable) {
        let mut table = DocTable::new();
        let mut replicas = vec![InMemoryIndex::new(); count];
        for i in 0..docs {
            let id = table.insert(format!("doc{i}.txt"));
            replicas[i % count]
                .insert_file(id, [Term::from("common"), Term::from(format!("w{i}"))]);
        }
        (replicas, table)
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
        let (replicas, docs) = replicas(3, 9);
        // Behind an earlier run, so the names are not the first.
        let (earlier, earlier_docs) = sample(0);
        let mut joined = IndexStore::open(dir.path().join("a")).unwrap();
        let mut merged = IndexStore::open(dir.path().join("b")).unwrap();
        replace(&mut joined, &earlier, &earlier_docs);
        replace(&mut merged, &earlier, &earlier_docs);

        let info = replace(&mut joined, &join_all(replicas.clone()), &docs);
        assert_eq!(merged.replace_with(&replicas, &docs).unwrap(), info);
        assert_eq!(merged.manifest(), joined.manifest());
        // Same names, same bytes, the manifest file included.
        assert_eq!(files_of(&merged), files_of(&joined));
        assert_eq!(files_of(&merged).len(), 3);
        assert_eq!(merged.written(), joined.written());
        // The census of a run is every byte of its doc file and segment.
        let mut fresh = IndexStore::open(dir.path().join("c")).unwrap();
        fresh.replace_with(&replicas, &docs).unwrap();
        let files = files_of(&fresh);
        let bytes = files.iter().filter(|(name, _)| name != "manifest.json");
        assert_eq!(fresh.written().total(), bytes.map(|(_, bytes)| bytes.len() as u64).sum());
        // A run without replicas is the empty index, and so is a segment
        // appended without them.
        let empty = replace(&mut joined, &InMemoryIndex::new(), &docs);
        assert_eq!(merged.replace_with(&[], &docs).unwrap(), empty);
        assert_eq!(files_of(&merged), files_of(&joined));
        merged.start(&docs).unwrap();
        joined.start(&docs).unwrap();
        merged.append(&[], &docs).unwrap();
        joined.append(std::slice::from_ref(&InMemoryIndex::new()), &docs).unwrap();
        assert_eq!(files_of(&merged), files_of(&joined));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 32,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// However a run's files were dealt to its replicas — some replicas
        /// empty, a file in two of them with different frequencies — the
        /// segment file `replace_with` writes is the one their join is
        /// stored as, and the one a sequential build of the same files is.
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
                store.replace_with(sources, docs).unwrap();
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
        let (replicas, docs) = replicas(3, 9);
        let dir = TempDir::new("whole");
        let root = dir.path().join("s");
        let mut store = IndexStore::open(&root).unwrap();
        let (earlier, earlier_docs) = sample(0);
        replace(&mut store, &earlier, &earlier_docs);
        let before = files_of(&store);
        // The next segment cannot be created: a directory is in its place.
        let blocked = root.join(segment_file_name(2));
        fs::create_dir(&blocked).unwrap();

        // Beside the old segment or in its place, with its doc file or
        // without, a write that fails leaves the manifest naming the old
        // files alone, in memory and for whoever opens the store next, the
        // old files where they were and no new one.
        assert!(store.append(&replicas, &earlier_docs).is_err());
        assert!(store.replace_with(&replicas, &docs).is_err());
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.manifest(), IndexStore::open(&root).unwrap().manifest());
        fs::remove_dir(&blocked).unwrap();
        assert_eq!(files_of(&store), before);
        // So is a doc file that cannot be created.
        let blocked = root.join(docs_file_name(2));
        fs::create_dir(&blocked).unwrap();
        assert!(store.start(&docs).is_err());
        assert!(store.replace_with(&replicas, &docs).is_err());
        fs::remove_dir(&blocked).unwrap();
        assert_eq!(files_of(&store), before);

        // With the obstacle gone the same call goes through, under the
        // name the failed one had reserved.
        store.append(&replicas, &earlier_docs).unwrap();
        assert_eq!(store.manifest().segments, ["segment-000001.dsg", "segment-000002.dsg"]);
        // And a run that takes the store over leaves its two files.
        store.replace_with(&replicas, &docs).unwrap();
        let names: Vec<String> = files_of(&store).into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["docs-000003.dsd", "manifest.json", "segment-000003.dsg"]);
    }

    #[test]
    fn loads_run_in_manifest_order_and_name_the_segment_that_fails() {
        let dir = TempDir::new("load-all");
        let mut store = IndexStore::open(dir.path().join("s")).unwrap();
        let (replicas, docs) = replicas(3, 9);
        store.start(&docs).unwrap();
        for replica in &replicas {
            store.append(std::slice::from_ref(replica), &docs).unwrap();
        }
        let (loaded, _) = store.load_all().unwrap();
        assert_eq!(loaded, replicas);
        for (position, shard) in store.load_all_sealed().unwrap().0.iter().enumerate() {
            assert_eq!(shard, &SealedShard::from_index(&replicas[position]));
        }

        // Cut the middle segment short, then the doc file: every load names
        // the file, the doc file first.
        let victim = store.manifest().segments[1].clone();
        let doc_file = store.manifest().docs.clone().unwrap();
        for name in [&victim, &doc_file] {
            let path = store.root().join(name);
            let bytes = fs::read(&path).unwrap();
            fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
            for err in [
                store.load_all().map(drop).unwrap_err(),
                store.load_all_sealed().map(drop).unwrap_err(),
            ] {
                assert!(
                    matches!(&err, PersistError::File { file_name, .. } if file_name == name),
                    "{err}"
                );
            }
        }
        assert!(store.load_docs().is_err());
    }

    #[test]
    fn a_segment_over_another_doc_table_is_refused() {
        let dir = TempDir::new("other-table");
        let mut store = IndexStore::open(dir.path().join("s")).unwrap();
        let (replicas, docs) = replicas(2, 6);
        store.start(&docs).unwrap();
        store.append(&replicas[..1], &docs).unwrap();
        // A segment sealed over a table of another length: one document
        // fewer, then one more.
        let mut fewer = DocTable::new();
        for (_, path) in docs.iter().take(5) {
            fewer.insert(path);
        }
        let mut more = docs.clone();
        more.insert("extra.txt");
        for other in [&fewer, &more] {
            let name = store.append(&replicas[..1], other).unwrap();
            for err in [
                store.load_all().map(drop).unwrap_err(),
                store.load_all_sealed().map(drop).unwrap_err(),
            ] {
                assert!(matches!(&err, PersistError::File { file_name, .. } if *file_name == name));
                let message = err.to_string();
                assert!(
                    message
                        .contains(&format!("over {} documents, not the doc file's 6", other.len())),
                    "{message}"
                );
            }
            store.retain_segments(|segment| segment != name).unwrap();
        }
        assert_eq!(store.load_all().unwrap().0, replicas[..1]);
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
        one.replace_with(&replicas, &docs).unwrap();
        let mut four = IndexStore::open(dir.path().join("four")).unwrap();
        four.start(&docs).unwrap();
        for replica in &replicas {
            four.append(std::slice::from_ref(replica), &docs).unwrap();
        }
        for store in [&one, &four] {
            let alone = store.read_all(1, sealed).unwrap();
            assert_eq!(alone.0.len(), store.segment_count());
            assert_eq!(alone.1, docs);
            for cores in [2, 3, 8] {
                assert_eq!(store.read_all(cores, sealed).unwrap(), alone);
            }
            assert_eq!(store.load_all_sealed().unwrap(), alone);
            let alone = store.read_all(1, into_index).unwrap();
            assert_eq!(store.read_all(8, into_index).unwrap(), alone);
            assert_eq!(store.load_all().unwrap(), alone);
        }
        let (shards, _) = one.load_all_sealed().unwrap();
        assert_eq!(shards, [SealedShard::from_index(&join_all(replicas))]);
    }

    #[test]
    fn corrupt_manifest_is_reported() {
        let dir = TempDir::new("corrupt");
        let root = dir.path().join("s");
        IndexStore::open(&root).unwrap();
        fs::write(root.join("manifest.json"), b"{ not json").unwrap();
        assert!(matches!(IndexStore::open(&root), Err(PersistError::Corrupt(_))));
        // A version-2 manifest whose segments are version 1's summaries.
        fs::write(
            root.join("manifest.json"),
            r#"{"version": 2, "next_segment": 2, "docs": null, "segments": [{"file_name": "segment-000001.dsg"}]}"#,
        )
        .unwrap();
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
    fn a_version_1_store_is_refused_by_name_and_a_full_run_replaces_it() {
        let dir = TempDir::new("v1");
        let root = dir.path().join("s");
        fs::create_dir_all(&root).unwrap();
        // What a version-11 `dsearch build` left: two segments, each with
        // its summary, and version 11 in the segment header.
        let info = r#"{"doc_count": 4, "term_count": 2, "posting_count": 4, "bytes": 40}"#;
        let names = ["segment-000003.dsg", "segment-000004.dsg"];
        let segments: Vec<String> = names
            .iter()
            .map(|name| format!(r#"{{"file_name": "{name}", "info": {info}}}"#))
            .collect();
        let manifest =
            format!(r#"{{"version": 1, "next_segment": 5, "segments": [{}]}}"#, segments.join(","));
        fs::write(root.join("manifest.json"), manifest).unwrap();
        for name in names {
            let payload = [11u8, 0, 0, 0];
            let file = [&crate::segment::SEGMENT_MAGIC[..], &[0; 8], &payload].concat();
            fs::write(root.join(name), file).unwrap();
        }
        let mut store = IndexStore::open(&root).unwrap();
        assert_eq!(store.manifest().segments, names);
        let message = store.load_all_sealed().map(drop).unwrap_err().to_string();
        assert!(
            message.starts_with("segment-000003.dsg: unsupported format version 11 (expected 13)"),
            "{message}"
        );
        assert!(message.contains("`dsearch index`"), "{message}");
        // The way out: a full run takes the store over, old files and all,
        // under names the old manifest never used.
        let (index, docs) = sample(0);
        replace(&mut store, &index, &docs);
        let names: Vec<String> = files_of(&store).into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["docs-000005.dsd", "manifest.json", "segment-000005.dsg"]);
        let reopened = IndexStore::open(&root).unwrap();
        assert_eq!(reopened.manifest().version, MANIFEST_VERSION);
        assert_eq!(reopened.load_all().unwrap(), (vec![index], docs));
    }

    #[test]
    fn a_manifest_naming_a_path_outside_the_store_is_refused() {
        let dir = TempDir::new("traversal");
        let root = dir.path().join("s");
        let mut store = IndexStore::open(&root).unwrap();
        let (index, docs) = sample(0);
        replace(&mut store, &index, &docs);
        // A victim beside the store, and a manifest whose segment or doc
        // file name climbs out to it: a takeover would `remove_file` it,
        // every loader would read it.
        let victim = dir.path().join("victim.dsg");
        fs::write(&victim, b"not yours").unwrap();
        for hostile in ["../victim.dsg", "", "..", ".", "/etc/passwd", "sub/segment.dsg", "x/"] {
            let mut segment = store.manifest().clone();
            segment.segments[0] = hostile.to_owned();
            let mut doc_file = store.manifest().clone();
            doc_file.docs = Some(hostile.to_owned());
            for manifest in [segment, doc_file] {
                fs::write(root.join("manifest.json"), serde_json::to_string(&manifest).unwrap())
                    .unwrap();
                match IndexStore::open(&root) {
                    Err(PersistError::Corrupt(message)) => {
                        assert!(message.contains("plain file name"), "{hostile:?}: {message}");
                    }
                    other => {
                        panic!("{hostile:?} was accepted: {:?}", other.map(|s| s.segment_count()))
                    }
                }
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
        // On success: the manifest writes of an open and three writes.
        let mut store = IndexStore::open(dir.path().join("s")).unwrap();
        let (index, docs) = sample(0);
        replace(&mut store, &index, &docs);
        store.start(&docs).unwrap();
        store.append(std::slice::from_ref(&index), &docs).unwrap();
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
        replace(&mut store, &index, &docs);
        fs::remove_file(store.root().join(&store.manifest().segments[0])).unwrap();
        assert!(store.load_all().is_err());
        assert!(store.load_all_sealed().is_err());
        replace(&mut store, &index, &docs);
        fs::remove_file(store.root().join(store.manifest().docs.as_ref().unwrap())).unwrap();
        assert!(store.load_all().is_err());
        assert!(store.load_docs().is_err());
    }
}
