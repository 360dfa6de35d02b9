//! Index persistence.
//!
//! Desktop search regenerates its index periodically but persists it between
//! runs.  [`IndexSnapshot`] is a serialisable (serde) representation of an
//! [`InMemoryIndex`] plus its [`DocTable`], with JSON writers/readers.  The
//! snapshot stores sorted entries so two snapshots of equal indices are
//! byte-identical, which the tests rely on.

use std::io::{Read, Write};

use serde::{Deserialize, Serialize};

use dsearch_text::tokenizer::Term;

use crate::doc_table::{DocTable, FileId};
use crate::memory_index::InMemoryIndex;
use crate::posting::PostingList;

/// Errors from snapshot I/O.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The snapshot could not be parsed.
    Format(String),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "i/o error: {e}"),
            SerializeError::Format(msg) => write!(f, "invalid snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SerializeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SerializeError::Io(e) => Some(e),
            SerializeError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for SerializeError {
    fn from(e: std::io::Error) -> Self {
        SerializeError::Io(e)
    }
}

/// A serialisable snapshot of an index and its document table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexSnapshot {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// The document table (id order).
    pub docs: DocTable,
    /// Sorted `(term, sorted file ids)` entries.
    pub entries: Vec<(Term, Vec<FileId>)>,
    /// `counts[i]` holds `entries[i]`'s per-posting term frequencies; empty
    /// means every occurrence count is 1 (the canonical tf form).
    pub counts: Vec<Vec<u32>>,
    /// `(file, document length)` pairs sorted by id; empty when the index
    /// recorded no lengths (then restored documents score with neutral
    /// norms).
    pub doc_lens: Vec<(FileId, u32)>,
}

/// Version-1 layout (ids only), still readable: restored postings get
/// tf = 1 and no document lengths.
#[derive(Deserialize)]
struct LegacySnapshotV1 {
    version: u32,
    docs: DocTable,
    entries: Vec<(Term, Vec<FileId>)>,
}

/// Current snapshot format version (2 = term frequencies + doc lengths).
pub const SNAPSHOT_VERSION: u32 = 2;

impl IndexSnapshot {
    /// Builds a snapshot from an index and its document table.
    #[must_use]
    pub fn from_index(index: &InMemoryIndex, docs: &DocTable) -> Self {
        let mut lists: Vec<(&Term, &PostingList)> = index.iter().collect();
        lists.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let (mut entries, mut counts) = (Vec::new(), Vec::new());
        for (term, list) in lists {
            let (ids, tfs): (Vec<FileId>, Vec<u32>) = list.iter_counted().unzip();
            entries.push((term.clone(), ids));
            counts.push(if tfs.iter().all(|&tf| tf == 1) { Vec::new() } else { tfs });
        }
        let mut doc_lens: Vec<(FileId, u32)> = index.doc_lens().collect();
        doc_lens.sort_unstable_by_key(|&(id, _)| id);
        IndexSnapshot { version: SNAPSHOT_VERSION, docs: docs.clone(), entries, counts, doc_lens }
    }

    /// Reconstructs the index (and document table) from the snapshot.
    #[must_use]
    pub fn into_index(self) -> (InMemoryIndex, DocTable) {
        let mut index = InMemoryIndex::with_capacity(self.entries.len());
        // Bulk-insert each term's whole list (sorting defensively: snapshots
        // written by this code are sorted, but the JSON may come from
        // elsewhere); file counters are restored from the doc table size.
        let mut counts = self.counts.into_iter();
        for (term, ids) in self.entries {
            let tfs = counts.next().unwrap_or_default();
            let list: PostingList = if tfs.len() == ids.len() && !tfs.is_empty() {
                let mut pairs: Vec<(FileId, u32)> = ids.into_iter().zip(tfs).collect();
                pairs.sort_unstable_by_key(|&(id, _)| id);
                pairs.into_iter().collect()
            } else {
                PostingList::from_ids(ids)
            };
            index.insert_term_list(term, list);
        }
        for (file, len) in self.doc_lens {
            index.note_doc_len(file, len);
        }
        for _ in 0..self.docs.len() {
            index.note_file_done();
        }
        (index, self.docs)
    }

    /// Writes the snapshot as JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialisation and I/O failures.
    pub fn write_json<W: Write>(&self, mut writer: W) -> Result<(), SerializeError> {
        let json =
            serde_json::to_string(self).map_err(|e| SerializeError::Format(e.to_string()))?;
        writer.write_all(json.as_bytes())?;
        Ok(())
    }

    /// Reads a snapshot from JSON.  Version-1 snapshots (no term
    /// frequencies or document lengths) are upgraded on read.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, malformed JSON, or a version mismatch.
    pub fn read_json<R: Read>(mut reader: R) -> Result<Self, SerializeError> {
        let mut buf = String::new();
        reader.read_to_string(&mut buf)?;
        match serde_json::from_str::<IndexSnapshot>(&buf) {
            Ok(snapshot) => {
                if snapshot.version != SNAPSHOT_VERSION {
                    return Err(SerializeError::Format(format!(
                        "unsupported snapshot version {} (expected {SNAPSHOT_VERSION})",
                        snapshot.version
                    )));
                }
                Ok(snapshot)
            }
            Err(current_err) => {
                let legacy: LegacySnapshotV1 = serde_json::from_str(&buf)
                    .map_err(|_| SerializeError::Format(current_err.to_string()))?;
                if legacy.version != 1 {
                    return Err(SerializeError::Format(format!(
                        "unsupported snapshot version {} (expected {SNAPSHOT_VERSION})",
                        legacy.version
                    )));
                }
                let term_count = legacy.entries.len();
                Ok(IndexSnapshot {
                    version: SNAPSHOT_VERSION,
                    docs: legacy.docs,
                    entries: legacy.entries,
                    counts: vec![Vec::new(); term_count],
                    doc_lens: Vec::new(),
                })
            }
        }
    }

    /// Number of distinct terms in the snapshot.
    #[must_use]
    pub fn term_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (InMemoryIndex, DocTable) {
        let mut docs = DocTable::new();
        let a = docs.insert("a.txt");
        let b = docs.insert("b.txt");
        let mut index = InMemoryIndex::new();
        index.insert_file(a, [Term::from("alpha"), Term::from("shared")]);
        index.insert_file(b, [Term::from("beta"), Term::from("shared")]);
        (index, docs)
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let (index, docs) = sample();
        let snapshot = IndexSnapshot::from_index(&index, &docs);
        assert_eq!(snapshot.term_count(), 3);

        let mut buf = Vec::new();
        snapshot.write_json(&mut buf).unwrap();
        let restored = IndexSnapshot::read_json(&buf[..]).unwrap();
        assert_eq!(snapshot, restored);

        let (index2, docs2) = restored.into_index();
        assert_eq!(index2, index);
        assert_eq!(docs2, docs);
        assert_eq!(index2.file_count(), 2);
    }

    #[test]
    fn equal_indices_produce_identical_snapshots() {
        let (index, docs) = sample();
        // Build the same index in a different order.
        let mut docs2 = DocTable::new();
        let a = docs2.insert("a.txt");
        let b = docs2.insert("b.txt");
        let mut index2 = InMemoryIndex::new();
        index2.insert_file(b, [Term::from("shared"), Term::from("beta")]);
        index2.insert_file(a, [Term::from("shared"), Term::from("alpha")]);

        let s1 = IndexSnapshot::from_index(&index, &docs);
        let s2 = IndexSnapshot::from_index(&index2, &docs2);
        let mut b1 = Vec::new();
        let mut b2 = Vec::new();
        s1.write_json(&mut b1).unwrap();
        s2.write_json(&mut b2).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn counted_roundtrip_preserves_tfs_and_doc_lens() {
        let mut docs = DocTable::new();
        let a = docs.insert("a.txt");
        let b = docs.insert("b.txt");
        let mut index = InMemoryIndex::new();
        index.insert_file_counted(a, [(Term::from("alpha"), 3u32), (Term::from("shared"), 1)]);
        index.insert_file_counted(b, [(Term::from("shared"), 5u32)]);

        let snapshot = IndexSnapshot::from_index(&index, &docs);
        let mut buf = Vec::new();
        snapshot.write_json(&mut buf).unwrap();
        let (restored, _) = IndexSnapshot::read_json(&buf[..]).unwrap().into_index();
        assert_eq!(restored, index);
        let shared = restored.postings(&Term::from("shared")).unwrap();
        assert_eq!(shared.tf_of(b), Some(5));
        assert_eq!(restored.doc_len(a), Some(4));
        assert_eq!(restored.doc_len(b), Some(5));
    }

    #[test]
    fn legacy_v1_json_is_upgraded_on_read() {
        let json = r#"{"version":1,"docs":{"paths":["a.txt"]},"entries":[["alpha",[0]]]}"#;
        match IndexSnapshot::read_json(json.as_bytes()) {
            Ok(snapshot) => {
                assert_eq!(snapshot.version, SNAPSHOT_VERSION);
                assert_eq!(snapshot.term_count(), 1);
                assert!(snapshot.doc_lens.is_empty());
                let (index, docs) = snapshot.into_index();
                assert_eq!(docs.len(), 1);
                assert_eq!(index.postings(&Term::from("alpha")).unwrap().tf_of(FileId(0)), Some(1));
            }
            Err(e) => panic!("legacy snapshot should parse: {e}"),
        }
    }

    #[test]
    fn malformed_json_is_rejected() {
        let err = IndexSnapshot::read_json(&b"not json"[..]).unwrap_err();
        assert!(matches!(err, SerializeError::Format(_)));
        assert!(err.to_string().contains("invalid snapshot"));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let (index, docs) = sample();
        let mut snapshot = IndexSnapshot::from_index(&index, &docs);
        snapshot.version = 99;
        let mut buf = Vec::new();
        snapshot.write_json(&mut buf).unwrap();
        let err = IndexSnapshot::read_json(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn io_error_variant_has_source() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (index, docs) = sample();
        let snapshot = IndexSnapshot::from_index(&index, &docs);
        let err = snapshot.write_json(FailingWriter).unwrap_err();
        assert!(matches!(err, SerializeError::Io(_)));
        assert!(std::error::Error::source(&err).is_some());
    }
}
