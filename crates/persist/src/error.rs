//! Error type for persistence operations.

use std::fmt;

/// Errors produced while reading or writing persisted index data.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The data on disk is not a valid segment / manifest / signature file.
    Corrupt(String),
    /// The data was written by an unsupported format version.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// A failure reported by the virtual file system during incremental
    /// re-indexing.
    Vfs(dsearch_vfs::VfsError),
    /// One segment of a store could not be read.
    Segment {
        /// The segment's file name in the store directory.
        file_name: String,
        /// What went wrong with it.
        source: Box<PersistError>,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt persisted data: {msg}"),
            PersistError::UnsupportedVersion { found, expected } => {
                write!(f, "unsupported format version {found} (expected {expected})")
            }
            PersistError::Vfs(e) => write!(f, "file system error: {e}"),
            PersistError::Segment { file_name, source } => write!(f, "{file_name}: {source}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Vfs(e) => Some(e),
            PersistError::Segment { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<dsearch_index::BlockFormatError> for PersistError {
    fn from(e: dsearch_index::BlockFormatError) -> Self {
        PersistError::Corrupt(e.0)
    }
}

impl From<dsearch_vfs::VfsError> for PersistError {
    fn from(e: dsearch_vfs::VfsError) -> Self {
        PersistError::Vfs(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_covers_all_variants() {
        let io = PersistError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
        assert!(io.source().is_some());

        let corrupt = PersistError::Corrupt("bad magic".into());
        assert!(corrupt.to_string().contains("bad magic"));
        assert!(corrupt.source().is_none());

        let version = PersistError::UnsupportedVersion { found: 9, expected: 1 };
        assert!(version.to_string().contains('9'));

        let vfs = PersistError::from(dsearch_vfs::VfsError::NotFound(dsearch_vfs::VPath::new("x")));
        assert!(vfs.to_string().contains("file system"));
        assert!(vfs.source().is_some());

        let segment = PersistError::Segment {
            file_name: "segment-000002.dsg".into(),
            source: Box::new(PersistError::Corrupt("segment checksum mismatch".into())),
        };
        assert_eq!(
            segment.to_string(),
            "segment-000002.dsg: corrupt persisted data: segment checksum mismatch"
        );
        assert!(segment.source().is_some());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PersistError>();
    }
}
