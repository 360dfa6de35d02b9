//! Stage 1: filename generation.
//!
//! A single thread traverses the directory hierarchy and produces the complete
//! list of files to index, together with the [`DocTable`] that assigns each
//! file its compact id.  The paper measured this stage at 5 seconds out of a
//! 90–220 second run (2–5 %), which is why it stays sequential and runs to
//! completion before Stage 2 starts: running it concurrently with the
//! extractors costs a pair of lock operations per filename and was "highly
//! inefficient".  Measured here too: ~10 % slower on a 2-core host, over a
//! `paper_scaled(0.005)` corpus at `(2, 0, 0)`.
//!
//! Since ids are given here and nowhere else, their order is free to choose,
//! and Stage 1 numbers the files smallest first ([`number_smallest_first`]:
//! by size, then path).  Short documents then share the small ids, so the
//! gaps between the ids of a posting list and its term frequencies pack
//! tighter (re-numbering documents to shrink an index: Silvestri, ECIR 2007)
//! — 7 % of the benchmark store — and the documents BM25 scores highest come
//! first, where a ranked query's threshold rises soonest.  Nothing an answer
//! shows depends on the ids: hits tie-break by path before id, and a segment
//! stores its doc table in path order.

use serde::{Deserialize, Serialize};

use dsearch_index::DocTable;
use dsearch_vfs::{FileSystem, VPath, WalkStats, Walker};

use crate::distribute::WorkItem;
use crate::error::PipelineError;

/// Output of Stage 1.
#[derive(Debug, Clone)]
pub struct FilenameSet {
    /// One work item per discovered file, in id order.
    pub items: Vec<WorkItem>,
    /// The id → path table shared by the rest of the pipeline.
    pub docs: DocTable,
    /// Traversal statistics.
    pub stats: Stage1Stats,
}

/// Statistics of the filename-generation stage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stage1Stats {
    /// Directories visited.
    pub directories: u64,
    /// Files discovered.
    pub files: u64,
    /// Total bytes across the discovered files.
    pub total_bytes: u64,
    /// Maximum directory depth.
    pub max_depth: usize,
}

impl From<WalkStats> for Stage1Stats {
    fn from(w: WalkStats) -> Self {
        Stage1Stats {
            directories: w.directories,
            files: w.files,
            total_bytes: w.total_bytes,
            max_depth: w.max_depth,
        }
    }
}

/// Generates the complete filename set for the tree under `root`.
///
/// # Errors
///
/// Fails when the root does not exist or a directory cannot be listed.
pub fn generate_filenames<F: FileSystem + ?Sized>(
    fs: &F,
    root: &VPath,
) -> Result<FilenameSet, PipelineError> {
    let (mut found, walk_stats) = Walker::new().walk(fs, root).map_err(PipelineError::Walk)?;
    number_smallest_first(&mut found, |file| (file.size, file.path.as_str()));
    let mut docs = DocTable::with_capacity(found.len());
    let mut items = Vec::with_capacity(found.len());
    for file in found {
        let id = docs.insert(file.path.as_str());
        items.push(WorkItem { file_id: id, path: file.path, size: file.size });
    }
    Ok(FilenameSet { items, docs, stats: walk_stats.into() })
}

/// Puts `files` in the order Stage 1 numbers them — ascending size, then
/// path — given each one's `(size, path)`.  Every producer of ids orders the
/// files it numbers through this, so a full run and an incremental one into
/// an empty store give every path the same id.
pub fn number_smallest_first<T>(files: &mut [T], size_and_path: impl Fn(&T) -> (u64, &str)) {
    files.sort_unstable_by(|a, b| size_and_path(a).cmp(&size_and_path(b)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_vfs::MemFs;

    fn fixture() -> MemFs {
        let fs = MemFs::new();
        fs.add_file(&VPath::new("a/one.txt"), vec![0; 10]).unwrap();
        fs.add_file(&VPath::new("a/b/two.txt"), vec![0; 20]).unwrap();
        fs.add_file(&VPath::new("three.txt"), vec![0; 30]).unwrap();
        fs
    }

    #[test]
    fn assigns_sequential_ids_matching_doc_table() {
        let fs = fixture();
        let set = generate_filenames(&fs, &VPath::root()).unwrap();
        assert_eq!(set.items.len(), 3);
        assert_eq!(set.docs.len(), 3);
        for item in &set.items {
            assert_eq!(set.docs.path(item.file_id), Some(item.path.as_str()));
        }
        // Ids are dense 0..n.
        let mut ids: Vec<u32> = set.items.iter().map(|i| i.file_id.as_u32()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn ids_follow_size_then_path() {
        let fs = MemFs::new();
        for (path, size) in [("z.txt", 5), ("b/big.txt", 40), ("a/y.txt", 5), ("m.txt", 0)] {
            fs.add_file(&VPath::new(path), vec![b'x'; size]).unwrap();
        }
        let set = generate_filenames(&fs, &VPath::root()).unwrap();
        let numbered: Vec<(u32, &str, u64)> = set
            .items
            .iter()
            .map(|item| (item.file_id.as_u32(), item.path.as_str(), item.size))
            .collect();
        // Smallest first; the two of 5 bytes by path.
        assert_eq!(
            numbered,
            [(0, "m.txt", 0), (1, "a/y.txt", 5), (2, "z.txt", 5), (3, "b/big.txt", 40)]
        );
    }

    #[test]
    fn stats_match_walk() {
        let fs = fixture();
        let set = generate_filenames(&fs, &VPath::root()).unwrap();
        assert_eq!(set.stats.files, 3);
        assert_eq!(set.stats.total_bytes, 60);
        assert_eq!(set.stats.directories, 3); // root, a, a/b
        assert_eq!(set.stats.max_depth, 2);
    }

    #[test]
    fn sizes_are_captured() {
        let fs = fixture();
        let set = generate_filenames(&fs, &VPath::root()).unwrap();
        let total: u64 = set.items.iter().map(|i| i.size).sum();
        assert_eq!(total, 60);
    }

    #[test]
    fn missing_root_errors() {
        let fs = MemFs::new();
        let err = generate_filenames(&fs, &VPath::new("missing")).unwrap_err();
        assert!(matches!(err, PipelineError::Walk(_)));
    }

    #[test]
    fn empty_tree_yields_empty_set() {
        let fs = MemFs::new();
        let set = generate_filenames(&fs, &VPath::root()).unwrap();
        assert!(set.items.is_empty());
        assert!(set.docs.is_empty());
        assert_eq!(set.stats.files, 0);
    }
}
