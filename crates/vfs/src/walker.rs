//! Directory traversal — the substrate of Stage 1 (filename generation).
//!
//! The paper keeps Stage 1 sequential: a single thread walks the directory
//! hierarchy from a root and produces the complete set of filenames in main
//! memory before term extraction starts.  [`Walker`] implements that walk over
//! any [`FileSystem`], depth-first, in deterministic sorted order, and reports
//! [`WalkStats`] (directories visited, files found, bytes discovered) that the
//! sequential-baseline experiment (Table 1) and the simulator both use.

use serde::{Deserialize, Serialize};

use crate::error::VfsError;
use crate::path::VPath;
use crate::{FileMeta, FileSystem};

/// Statistics of one directory walk.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkStats {
    /// Directories visited (including the root).
    pub directories: u64,
    /// Files discovered.
    pub files: u64,
    /// Sum of the discovered files' sizes in bytes.
    pub total_bytes: u64,
    /// Maximum directory depth seen.
    pub max_depth: usize,
}

/// A discovered file: its path and size.
///
/// File sizes are captured during the walk so that Stage 1's byte count and
/// the checkpointed build's corpus fingerprint need not query the file
/// system again.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FoundFile {
    /// Path of the file.
    pub path: VPath,
    /// Size in bytes at walk time.
    pub size: u64,
}

/// Depth-first directory traversal over a [`FileSystem`].
///
/// # Example
///
/// ```
/// use dsearch_vfs::{MemFs, VPath, Walker};
///
/// let fs = MemFs::new();
/// fs.add_file(&VPath::new("docs/a.txt"), vec![0; 3]).unwrap();
/// fs.add_file(&VPath::new("docs/deep/b.txt"), vec![0; 5]).unwrap();
///
/// let (files, stats) = Walker::new().walk(&fs, &VPath::root()).unwrap();
/// assert_eq!(files.len(), 2);
/// assert_eq!(stats.total_bytes, 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Walker {
    /// Only include files whose extension is in this list (empty = all files).
    extensions: Vec<String>,
    /// Skip files larger than this many bytes (`None` = no limit).
    max_file_size: Option<u64>,
}

impl Walker {
    /// Creates a walker that accepts every file.
    #[must_use]
    pub fn new() -> Self {
        Walker::default()
    }

    /// Restricts the walk to files with one of the given extensions
    /// (case-insensitive, without dots).
    #[must_use]
    pub fn with_extensions<I, S>(mut self, exts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.extensions = exts.into_iter().map(|e| e.into().to_ascii_lowercase()).collect();
        self
    }

    /// Skips files larger than `bytes`.
    #[must_use]
    pub fn with_max_file_size(mut self, bytes: u64) -> Self {
        self.max_file_size = Some(bytes);
        self
    }

    fn accepts(&self, path: &VPath, meta: &FileMeta) -> bool {
        if let Some(limit) = self.max_file_size {
            if meta.size > limit {
                return false;
            }
        }
        if self.extensions.is_empty() {
            return true;
        }
        match path.extension() {
            Some(ext) => self.extensions.iter().any(|e| e == &ext.to_ascii_lowercase()),
            None => false,
        }
    }

    /// Walks the tree under `root`, returning every accepted file in
    /// deterministic depth-first sorted order together with walk statistics.
    ///
    /// # Errors
    ///
    /// Fails if `root` does not exist or a directory cannot be listed.
    pub fn walk<F: FileSystem + ?Sized>(
        &self,
        fs: &F,
        root: &VPath,
    ) -> Result<(Vec<FoundFile>, WalkStats), VfsError> {
        let mut files = Vec::new();
        let mut stats = WalkStats::default();
        self.walk_dir(fs, root, 0, &mut files, &mut stats)?;
        Ok((files, stats))
    }

    fn walk_dir<F: FileSystem + ?Sized>(
        &self,
        fs: &F,
        dir: &VPath,
        depth: usize,
        files: &mut Vec<FoundFile>,
        stats: &mut WalkStats,
    ) -> Result<(), VfsError> {
        stats.directories += 1;
        stats.max_depth = stats.max_depth.max(depth);
        let entries = fs.read_dir(dir)?;
        for entry in entries {
            if entry.meta.is_dir {
                self.walk_dir(fs, &entry.path, depth + 1, files, stats)?;
            } else if self.accepts(&entry.path, &entry.meta) {
                stats.files += 1;
                stats.total_bytes += entry.meta.size;
                files.push(FoundFile { path: entry.path, size: entry.meta.size });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemFs;

    fn tree() -> MemFs {
        let fs = MemFs::new();
        fs.add_file(&VPath::new("a/one.txt"), vec![0; 10]).unwrap();
        fs.add_file(&VPath::new("a/two.log"), vec![0; 20]).unwrap();
        fs.add_file(&VPath::new("a/deep/three.txt"), vec![0; 30]).unwrap();
        fs.add_file(&VPath::new("b/four.TXT"), vec![0; 40]).unwrap();
        fs.add_file(&VPath::new("root.txt"), vec![0; 5]).unwrap();
        fs.add_dir(&VPath::new("empty/dir")).unwrap();
        fs
    }

    #[test]
    fn walk_finds_all_files_with_stats() {
        let fs = tree();
        let (files, stats) = Walker::new().walk(&fs, &VPath::root()).unwrap();
        assert_eq!(files.len(), 5);
        assert_eq!(stats.files, 5);
        assert_eq!(stats.total_bytes, 105);
        // root + a + a/deep + b + empty + empty/dir
        assert_eq!(stats.directories, 6);
        assert_eq!(stats.max_depth, 2);
    }

    #[test]
    fn walk_is_deterministic() {
        let fs = tree();
        let (first, _) = Walker::new().walk(&fs, &VPath::root()).unwrap();
        let (second, _) = Walker::new().walk(&fs, &VPath::root()).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn walk_subtree_only() {
        let fs = tree();
        let (files, stats) = Walker::new().walk(&fs, &VPath::new("a")).unwrap();
        assert_eq!(files.len(), 3);
        assert!(files.iter().all(|f| f.path.starts_with(&VPath::new("a"))));
        assert_eq!(stats.directories, 2);
    }

    #[test]
    fn extension_filter_is_case_insensitive() {
        let fs = tree();
        let (files, _) = Walker::new().with_extensions(["txt"]).walk(&fs, &VPath::root()).unwrap();
        assert_eq!(files.len(), 4);
        assert!(files.iter().all(|f| f.path.extension().unwrap().eq_ignore_ascii_case("txt")));
    }

    #[test]
    fn size_limit_filters_large_files() {
        let fs = tree();
        let (files, stats) =
            Walker::new().with_max_file_size(20).walk(&fs, &VPath::root()).unwrap();
        assert_eq!(files.len(), 3);
        assert!(files.iter().all(|f| f.size <= 20));
        assert_eq!(stats.total_bytes, 35);
    }

    #[test]
    fn missing_root_is_an_error() {
        let fs = MemFs::new();
        assert!(Walker::new().walk(&fs, &VPath::new("missing")).is_err());
    }

    #[test]
    fn file_sizes_match_contents() {
        let fs = tree();
        let (files, _) = Walker::new().walk(&fs, &VPath::root()).unwrap();
        for f in &files {
            assert_eq!(f.size, fs.metadata(&f.path).unwrap().size);
        }
    }

    #[test]
    fn empty_tree_has_only_root_dir() {
        let fs = MemFs::new();
        let (files, stats) = Walker::new().walk(&fs, &VPath::root()).unwrap();
        assert!(files.is_empty());
        assert_eq!(stats.directories, 1);
        assert_eq!(stats.files, 0);
    }
}
