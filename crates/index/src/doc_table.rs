//! Document (file) identifiers.
//!
//! The index stores compact numeric [`FileId`]s in its posting lists instead
//! of full path strings.  Ids are assigned by the single-threaded Stage 1
//! (filename generation), so no synchronisation is needed later: every
//! extractor thread already knows the id of each file it scans.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

/// Compact identifier of an indexed file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FileId(pub u32);

impl FileId {
    /// The numeric value.
    #[must_use]
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// The id as a usable index into per-file arrays.
    #[must_use]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Maps [`FileId`]s to file paths and back.
///
/// Construction happens in Stage 1 on a single thread; afterwards the table is
/// only read, so it can be shared freely (`Arc<DocTable>`) between extractor
/// threads, index updaters and the query engine.
///
/// Paths are shared `Arc<str>`s, so a search hit holds its path by a
/// reference-count bump ([`DocTable::shared_path`]), never by a copy.
#[derive(Debug, Clone, Default)]
pub struct DocTable {
    paths: Vec<Arc<str>>,
    /// [`DocTable::path_ranks`], computed on first use and dropped by every
    /// insert.
    ranks: OnceLock<Box<[u32]>>,
}

impl PartialEq for DocTable {
    fn eq(&self, other: &Self) -> bool {
        self.paths == other.paths
    }
}

impl Eq for DocTable {}

impl DocTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        DocTable::default()
    }

    /// Creates a table with the given capacity hint.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        DocTable { paths: Vec::with_capacity(capacity), ranks: OnceLock::new() }
    }

    /// Registers a file path and returns its id.
    ///
    /// Paths are not de-duplicated: Stage 1 produces each filename exactly
    /// once, so checking would be wasted work (this mirrors the paper's
    /// "each file is scanned exactly once" argument).
    pub fn insert(&mut self, path: impl AsRef<str>) -> FileId {
        let id = FileId(u32::try_from(self.paths.len()).expect("more than u32::MAX files"));
        self.paths.push(Arc::from(path.as_ref()));
        self.ranks.take();
        id
    }

    /// The path registered under `id`, if any.
    #[must_use]
    pub fn path(&self, id: FileId) -> Option<&str> {
        self.paths.get(id.as_usize()).map(|path| &**path)
    }

    /// The path registered under `id` as the table's own shared string: a
    /// clone is a reference-count bump.
    #[must_use]
    pub fn shared_path(&self, id: FileId) -> Option<&Arc<str>> {
        self.paths.get(id.as_usize())
    }

    /// Every id's position in the table sorted by `(path, id)`: comparing
    /// two ids' ranks is comparing their paths, ids breaking ties — the order
    /// search results take — without touching a string.  Computed once per
    /// table (a sort that is linear when Stage 1 already inserted the paths
    /// in order), on first use.
    #[must_use]
    pub fn path_ranks(&self) -> &[u32] {
        self.ranks.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.paths.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                self.paths[a as usize].cmp(&self.paths[b as usize]).then(a.cmp(&b))
            });
            let mut ranks = vec![0u32; order.len()].into_boxed_slice();
            for (rank, &id) in order.iter().enumerate() {
                ranks[id as usize] = rank as u32;
            }
            ranks
        })
    }

    /// Number of registered files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Returns `true` when no files are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Heap bytes the table holds, from its capacities: the path slots, each
    /// path's shared allocation (two reference counts and the text) and the
    /// ranks once computed.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let counts = 2 * std::mem::size_of::<usize>();
        self.paths.capacity() * std::mem::size_of::<Arc<str>>()
            + self.paths.iter().map(|path| counts + path.len()).sum::<usize>()
            + self.ranks.get().map_or(0, |ranks| std::mem::size_of_val(&**ranks))
    }

    /// Iterates over `(FileId, path)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, &str)> {
        self.paths.iter().enumerate().map(|(i, p)| (FileId(i as u32), &**p))
    }

    /// Linear search for the id of `path` (test/debug helper; production code
    /// keeps ids from Stage 1).
    #[must_use]
    pub fn find(&self, path: &str) -> Option<FileId> {
        self.paths.iter().position(|p| &**p == path).map(|i| FileId(i as u32))
    }
}

impl FromIterator<String> for DocTable {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        DocTable { paths: iter.into_iter().map(Arc::from).collect(), ranks: OnceLock::new() }
    }
}

impl Serialize for DocTable {
    fn serialize(&self) -> serde::Value {
        self.paths.serialize()
    }
}

impl Deserialize for DocTable {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(DocTable { paths: Vec::deserialize(value)?, ranks: OnceLock::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut t = DocTable::new();
        let a = t.insert("a.txt");
        let b = t.insert("b.txt");
        assert_eq!(a, FileId(0));
        assert_eq!(b, FileId(1));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn path_lookup_roundtrips() {
        let mut t = DocTable::with_capacity(4);
        let id = t.insert("dir/file.txt");
        assert_eq!(t.path(id), Some("dir/file.txt"));
        assert_eq!(t.path(FileId(99)), None);
        assert_eq!(t.find("dir/file.txt"), Some(id));
        assert_eq!(t.find("missing"), None);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let t: DocTable = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let pairs: Vec<(FileId, &str)> = t.iter().collect();
        assert_eq!(pairs, vec![(FileId(0), "x"), (FileId(1), "y"), (FileId(2), "z")]);
    }

    #[test]
    fn file_id_display_and_accessors() {
        let id = FileId(7);
        assert_eq!(id.to_string(), "#7");
        assert_eq!(id.as_u32(), 7);
        assert_eq!(id.as_usize(), 7);
    }

    #[test]
    fn path_ranks_order_ids_as_their_paths_then_ids_and_follow_inserts() {
        let mut t: DocTable = ["b", "a/x", "c", "a"].iter().map(|s| s.to_string()).collect();
        assert_eq!(t.path_ranks(), [2, 1, 3, 0]);
        let again = t.insert("a");
        assert_eq!(again, FileId(4));
        // A duplicate path ranks right after its first occurrence.
        assert_eq!(t.path_ranks(), [3, 2, 4, 0, 1]);
        assert!(Arc::ptr_eq(t.shared_path(again).unwrap(), t.shared_path(again).unwrap()));
        assert_eq!(t.shared_path(FileId(9)), None);
    }

    #[test]
    fn duplicate_paths_get_distinct_ids() {
        let mut t = DocTable::new();
        let a = t.insert("same.txt");
        let b = t.insert("same.txt");
        assert_ne!(a, b);
    }
}
