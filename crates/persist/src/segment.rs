//! The binary segment format.
//!
//! One segment stores one complete index (terms, block-compressed posting
//! lists) together with its document table.  The version-3 layout is:
//!
//! ```text
//! magic   "DSG1"                            4 bytes
//! checksum FNV-1a(payload)                  8 bytes little-endian
//! payload:
//!   version                                 varint
//!   doc count                               varint
//!   per doc: path                           length-prefixed bytes
//!   doc-length count (v3)                   varint
//!   per length (v3, id ascending):          file id, length as varints
//!   term count                              varint
//!   per term (sorted ascending):
//!     term                                  length-prefixed bytes
//!     posting count                         varint
//!     skip entries (only when > 1 block):   per block: first, last, offset
//!                                           as varints
//!     block payload                         length-prefixed bytes
//!     frequency payload (v3)                length-prefixed bytes
//!     frequency offsets (v3, only when      per block: byte offset varint
//!       the frequency payload is non-empty)
//!     max score (v3)                        f32 bits as varint
//!     block score bounds (v3, only when     one u8 per block, raw
//!       max score > 0)
//! ```
//!
//! The per-term payload is **exactly** the in-memory
//! [`CompressedPostings`] representation (delta blocks, varint or bitpacked,
//! plus the v3 term-frequency payload and quantized per-block BM25 score
//! bounds, see `dsearch_index::block`), so serving a segment is decode-free:
//! the bytes are lifted straight into a [`SealedShard`] without touching a
//! single posting, and ranked queries prune with the persisted bounds.
//! Version-1 segments (per-id ascending varint deltas) and version-2
//! segments (no frequencies or scores — served unscored) are still
//! readable.  The checksum makes a truncated or bit-flipped segment a clean
//! [`PersistError::Corrupt`] instead of a garbage index.

use std::hash::Hasher;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};

use dsearch_index::{
    CompressedPostings, DocTable, FileId, InMemoryIndex, PostingList, SealedShard, SealedTerms,
    SkipEntry, BLOCK_SIZE,
};
use dsearch_text::fnv::{fnv1a_64, FnvHasher};
use dsearch_text::Term;

use crate::error::PersistError;
use crate::varint;

/// Magic bytes identifying a segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"DSG1";

/// Current segment format version (3 = term frequencies, document lengths
/// and block-max score bounds; 2 = block-compressed postings).
pub const SEGMENT_VERSION: u32 = 3;

/// Oldest version [`read_segment`] still understands.
pub const MIN_SEGMENT_VERSION: u32 = 1;

/// Longest path or term (in bytes) a segment will accept when reading;
/// protects against corrupt length prefixes.
const MAX_STRING_LEN: u64 = 64 * 1024;

/// Fewest bytes a term entry occupies in any version: a term length and a
/// posting count.
const MIN_TERM_BYTES: usize = 2;

/// Summary of a written segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SegmentInfo {
    /// Number of documents in the segment's doc table.
    pub doc_count: u64,
    /// Number of distinct terms.
    pub term_count: u64,
    /// Number of `(term, file)` postings.
    pub posting_count: u64,
    /// Encoded size in bytes (including header).
    pub bytes: u64,
}

/// Writes `index` and `docs` as one segment.
///
/// The payload streams out through a buffer one sealed term at a time —
/// neither a sealed copy of the index nor the encoded payload is ever held
/// whole — while its checksum accumulates; the checksum slot in the header
/// is then patched in place, which is why `writer` must seek.  On return
/// `writer` is positioned at the end of the segment.
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
pub fn write_segment<W: Write + Seek>(
    index: &InMemoryIndex,
    docs: &DocTable,
    mut writer: W,
) -> Result<SegmentInfo, PersistError> {
    let start = writer.stream_position()?;
    writer.write_all(&SEGMENT_MAGIC)?;
    writer.write_all(&[0u8; 8])?;

    let mut payload = ChecksumWriter::new(BufWriter::new(&mut writer));
    varint::write_u32(&mut payload, SEGMENT_VERSION)?;

    varint::write_u64(&mut payload, docs.len() as u64)?;
    for (_, path) in docs.iter() {
        varint::write_bytes(&mut payload, path.as_bytes())?;
    }

    let mut doc_lens: Vec<(FileId, u32)> = index.doc_lens().collect();
    doc_lens.sort_unstable_by_key(|&(id, _)| id);
    varint::write_u64(&mut payload, doc_lens.len() as u64)?;
    for &(id, len) in &doc_lens {
        varint::write_u32(&mut payload, id.as_u32())?;
        varint::write_u32(&mut payload, len)?;
    }

    // Sealing computes the per-block BM25 score bounds exactly as the
    // serving path would, so persisted bounds match in-memory seals bit for
    // bit.
    let sealed = SealedTerms::new(index);
    let term_count = sealed.len() as u64;
    let mut posting_count = 0u64;
    varint::write_u64(&mut payload, term_count)?;
    for (term, compressed) in sealed {
        posting_count += compressed.len() as u64;
        write_term_postings(&mut payload, term, &compressed)?;
    }

    let (checksum, payload_len) = payload.finish()?;
    writer.seek(SeekFrom::Start(start + SEGMENT_MAGIC.len() as u64))?;
    writer.write_all(&checksum.to_le_bytes())?;
    writer.seek(SeekFrom::Start(start + HEADER_LEN + payload_len))?;

    Ok(SegmentInfo {
        doc_count: docs.len() as u64,
        term_count,
        posting_count,
        bytes: HEADER_LEN + payload_len,
    })
}

/// Magic plus checksum.
const HEADER_LEN: u64 = SEGMENT_MAGIC.len() as u64 + 8;

/// Forwards writes to `inner` while folding them into a running FNV-1a
/// checksum and byte count.
struct ChecksumWriter<W: Write> {
    inner: W,
    hasher: FnvHasher,
    len: u64,
}

impl<W: Write> ChecksumWriter<W> {
    fn new(inner: W) -> Self {
        ChecksumWriter { inner, hasher: FnvHasher::new(), len: 0 }
    }

    /// Flushes `inner` and returns `(checksum, bytes written)`.
    fn finish(mut self) -> std::io::Result<(u64, u64)> {
        self.inner.flush()?;
        Ok((self.hasher.finish(), self.len))
    }
}

impl<W: Write> Write for ChecksumWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hasher.write(&buf[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn write_term_postings<W: Write>(
    payload: &mut W,
    term: &Term,
    compressed: &CompressedPostings,
) -> Result<(), PersistError> {
    varint::write_bytes(payload, term.as_str().as_bytes())?;
    varint::write_u64(payload, compressed.len() as u64)?;
    for skip in compressed.skips() {
        varint::write_u32(payload, skip.first.as_u32())?;
        varint::write_u32(payload, skip.last.as_u32())?;
        varint::write_u32(payload, skip.offset)?;
    }
    varint::write_bytes(payload, compressed.data())?;
    varint::write_bytes(payload, compressed.freqs())?;
    for &offset in compressed.freq_offsets() {
        varint::write_u32(payload, offset)?;
    }
    varint::write_u32(payload, compressed.max_score().to_bits())?;
    payload.write_all(compressed.block_scores())?;
    Ok(())
}

/// Checks an element count taken from the file against the bytes left in
/// the payload: every element costs at least `min_bytes`, so a larger count
/// is corrupt and must never size an allocation.
fn fits(count: u64, min_bytes: usize, left: &[u8], what: &str) -> Result<usize, PersistError> {
    usize::try_from(count)
        .ok()
        .filter(|c| c.checked_mul(min_bytes).is_some_and(|bytes| bytes <= left.len()))
        .ok_or_else(|| {
            PersistError::Corrupt(format!(
                "{what} count {count} cannot fit in the {} bytes left",
                left.len()
            ))
        })
}

/// Reads an element count and [`fits`] it to what follows.
fn read_count(cursor: &mut &[u8], min_bytes: usize, what: &str) -> Result<usize, PersistError> {
    let count = varint::read_u64(cursor)?;
    fits(count, min_bytes, cursor, what)
}

/// Reads a length-prefixed byte string of at most `max_len` bytes, and never
/// more than the payload still holds.
fn read_bytes(cursor: &mut &[u8], max_len: u64) -> Result<Vec<u8>, PersistError> {
    varint::read_bytes(cursor, max_len.min(cursor.len() as u64))
}

fn read_term_postings(
    cursor: &mut &[u8],
    version: u32,
) -> Result<(Term, CompressedPostings), PersistError> {
    let term = read_bytes(cursor, MAX_STRING_LEN)?;
    let term = String::from_utf8(term)
        .map_err(|_| PersistError::Corrupt("term is not valid UTF-8".into()))?;
    let term = Term::from(term);
    if version == 1 {
        // Legacy per-id ascending deltas: decode, then compress.
        let posting_count = read_count(cursor, 1, "posting")?;
        let mut ids = Vec::with_capacity(posting_count);
        let mut previous = 0u64;
        for i in 0..posting_count {
            let delta = varint::read_u64(cursor)?;
            let value = if i == 0 { Some(delta) } else { previous.checked_add(delta) };
            let value = value
                .filter(|&v| v <= u64::from(u32::MAX))
                .ok_or_else(|| PersistError::Corrupt("file id does not fit in u32".into()))?;
            let id = value as u32;
            ids.push(FileId(id));
            previous = value;
        }
        return Ok((term, CompressedPostings::from_sorted(&ids)));
    }
    // A constant-gap block holds 128 ids in a few bytes, so postings can
    // outnumber the bytes left — but every block costs at least one, and
    // every skip entry three.
    let posting_count = varint::read_u64(cursor)?;
    let block_count = fits(posting_count.div_ceil(BLOCK_SIZE as u64), 1, cursor, "posting block")?;
    let posting_count = posting_count as usize;
    let skip_count = if block_count > 1 { block_count } else { 0 };
    fits(skip_count as u64, 3, cursor, "skip entry")?;
    let mut skips = Vec::with_capacity(skip_count);
    for _ in 0..skip_count {
        let first = FileId(varint::read_u32(cursor)?);
        let last = FileId(varint::read_u32(cursor)?);
        let offset = varint::read_u32(cursor)?;
        skips.push(SkipEntry { first, last, offset });
    }
    // Encoded blocks never exceed ~5 bytes/id plus per-block headers.
    let data_bound = 6 * posting_count as u64 + 2 * block_count as u64 + 16;
    let data = read_bytes(cursor, data_bound)?;
    if version == 2 {
        let compressed = CompressedPostings::from_parts(posting_count, skips, data)
            .map_err(|e| PersistError::Corrupt(e.to_string()))?;
        return Ok((term, compressed));
    }

    // Version 3: term frequencies and block-max score bounds.
    let freq_bound = 5 * posting_count as u64 + 2 * block_count as u64 + 16;
    let freqs = read_bytes(cursor, freq_bound)?;
    let mut freq_offsets = Vec::new();
    if !freqs.is_empty() {
        fits(block_count as u64, 1, cursor, "frequency offset")?;
        freq_offsets.reserve(block_count);
        for _ in 0..block_count {
            freq_offsets.push(varint::read_u32(cursor)?);
        }
    }
    let max_score = f32::from_bits(varint::read_u32(cursor)?);
    let mut block_scores = Vec::new();
    if max_score > 0.0 {
        if cursor.len() < block_count {
            return Err(PersistError::Corrupt("truncated block score bounds".into()));
        }
        block_scores.extend_from_slice(&cursor[..block_count]);
        *cursor = &cursor[block_count..];
    }
    let compressed = CompressedPostings::from_parts_scored(
        posting_count,
        skips,
        data,
        freqs,
        freq_offsets,
        block_scores,
        max_score,
    )
    .map_err(|e| PersistError::Corrupt(e.to_string()))?;
    Ok((term, compressed))
}

/// Shared front matter: magic, checksum verification, version, doc table,
/// document lengths (v3).  Returns the doc table, the recorded lengths
/// (empty for v1/v2 — those segments serve unscored), the remaining payload
/// cursor and the version.
#[allow(clippy::type_complexity)]
fn read_segment_header(
    payload: &[u8],
) -> Result<(DocTable, Vec<(FileId, u32)>, &[u8], u32), PersistError> {
    let mut cursor = payload;
    let version = varint::read_u32(&mut cursor)?;
    if !(MIN_SEGMENT_VERSION..=SEGMENT_VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion { found: version, expected: SEGMENT_VERSION });
    }
    let doc_count = read_count(&mut cursor, 1, "document")?;
    let mut docs = DocTable::with_capacity(doc_count);
    for _ in 0..doc_count {
        let path = read_bytes(&mut cursor, MAX_STRING_LEN)?;
        let path = String::from_utf8(path)
            .map_err(|_| PersistError::Corrupt("document path is not valid UTF-8".into()))?;
        docs.insert(path);
    }
    let mut doc_lens = Vec::new();
    if version >= 3 {
        let len_count = read_count(&mut cursor, 2, "document length")?;
        if len_count > doc_count {
            return Err(PersistError::Corrupt("more document lengths than documents".into()));
        }
        doc_lens.reserve(len_count);
        let mut previous: Option<u32> = None;
        for _ in 0..len_count {
            let id = varint::read_u32(&mut cursor)?;
            let len = varint::read_u32(&mut cursor)?;
            if previous.is_some_and(|p| p >= id) {
                return Err(PersistError::Corrupt(
                    "document lengths are not strictly ascending by id".into(),
                ));
            }
            previous = Some(id);
            doc_lens.push((FileId(id), len));
        }
    }
    Ok((docs, doc_lens, cursor, version))
}

fn read_payload<R: Read>(mut reader: R) -> Result<Vec<u8>, PersistError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != SEGMENT_MAGIC {
        return Err(PersistError::Corrupt("bad segment magic".into()));
    }
    let mut checksum_bytes = [0u8; 8];
    reader.read_exact(&mut checksum_bytes)?;
    let expected_checksum = u64::from_le_bytes(checksum_bytes);

    let mut payload = Vec::new();
    reader.read_to_end(&mut payload)?;
    if fnv1a_64(&payload) != expected_checksum {
        return Err(PersistError::Corrupt("segment checksum mismatch".into()));
    }
    Ok(payload)
}

/// Reads one segment, reconstructing the mutable index and its document
/// table (the incremental re-indexing path; serving should prefer
/// [`read_segment_sealed`]).
///
/// # Errors
///
/// Fails on I/O errors, a wrong magic number, a checksum mismatch, an
/// unsupported version or any malformed length/delta.
pub fn read_segment<R: Read>(reader: R) -> Result<(InMemoryIndex, DocTable), PersistError> {
    let payload = read_payload(reader)?;
    let (docs, doc_lens, mut cursor, version) = read_segment_header(&payload)?;

    let term_count = read_count(&mut cursor, MIN_TERM_BYTES, "term")?;
    let mut index = InMemoryIndex::with_capacity(term_count);
    for _ in 0..term_count {
        let (term, compressed) = read_term_postings(&mut cursor, version)?;
        // Bulk insert: one map operation per term, never a per-id add loop.
        index.insert_term_list(term, decompress_list(&compressed)?);
    }
    for (file, len) in doc_lens {
        index.note_doc_len(file, len);
    }
    // Restore the file counter from the doc table, as the JSON snapshot does.
    for _ in 0..docs.len() {
        index.note_file_done();
    }

    ensure_drained(cursor)?;
    Ok((index, docs))
}

/// Reads one segment straight into a [`SealedShard`] — the decode-free
/// serving path: version-2 block payloads are lifted as-is, no posting is
/// ever decompressed.
///
/// # Errors
///
/// Fails like [`read_segment`].
pub fn read_segment_sealed<R: Read>(reader: R) -> Result<(SealedShard, DocTable), PersistError> {
    let payload = read_payload(reader)?;
    let (docs, doc_lens, mut cursor, version) = read_segment_header(&payload)?;

    let term_count = read_count(&mut cursor, MIN_TERM_BYTES, "term")?;
    let mut entries = Vec::with_capacity(term_count);
    for _ in 0..term_count {
        entries.push(read_term_postings(&mut cursor, version)?);
    }
    ensure_drained(cursor)?;
    let shard = SealedShard::from_entries_scored(entries, docs.len() as u64, doc_lens)
        .map_err(PersistError::Corrupt)?;
    Ok((shard, docs))
}

fn decompress_list(compressed: &CompressedPostings) -> Result<PostingList, PersistError> {
    let mut ids = Vec::new();
    compressed.decode_into(&mut ids);
    if ids.windows(2).any(|w| w[0] >= w[1]) {
        return Err(PersistError::Corrupt("posting ids are not strictly ascending".into()));
    }
    let mut tfs = Vec::new();
    compressed.decode_freqs_into(&mut tfs);
    Ok(PostingList::from_sorted_counted(ids, tfs))
}

fn ensure_drained(cursor: &[u8]) -> Result<(), PersistError> {
    if cursor.is_empty() {
        Ok(())
    } else {
        Err(PersistError::Corrupt(format!("{} trailing bytes after segment payload", cursor.len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> (InMemoryIndex, DocTable) {
        let mut docs = DocTable::new();
        let a = docs.insert("dir/a.txt");
        let b = docs.insert("dir/b.txt");
        let c = docs.insert("c.md");
        let mut index = InMemoryIndex::new();
        index.insert_file(a, [Term::from("alpha"), Term::from("beta")]);
        index.insert_file(b, [Term::from("beta"), Term::from("gamma")]);
        index.insert_file(c, [Term::from("alpha"), Term::from("gamma"), Term::from("delta")]);
        (index, docs)
    }

    #[test]
    fn round_trip_preserves_index_and_docs() {
        let (index, docs) = sample();
        let mut buf = Vec::new();
        let info = write_segment(&index, &docs, std::io::Cursor::new(&mut buf)).unwrap();
        assert_eq!(info.doc_count, 3);
        assert_eq!(info.term_count, 4);
        assert_eq!(info.posting_count, 7);
        assert_eq!(info.bytes, buf.len() as u64);

        let (restored, restored_docs) = read_segment(&buf[..]).unwrap();
        assert_eq!(restored, index);
        assert_eq!(restored_docs.len(), docs.len());
        for (id, path) in docs.iter() {
            assert_eq!(restored_docs.path(id), Some(path));
        }
        assert_eq!(restored.file_count(), 3);
    }

    #[test]
    fn counted_round_trip_preserves_tfs_lens_and_scores() {
        let mut docs = DocTable::new();
        let a = docs.insert("a.txt");
        let b = docs.insert("b.txt");
        let mut index = InMemoryIndex::new();
        index.insert_file_counted(a, [(Term::from("alpha"), 4u32), (Term::from("beta"), 1)]);
        index.insert_file_counted(b, [(Term::from("alpha"), 1u32)]);

        let mut buf = Vec::new();
        write_segment(&index, &docs, std::io::Cursor::new(&mut buf)).unwrap();

        // Mutable path: tfs and doc lens restored exactly.
        let (restored, _) = read_segment(&buf[..]).unwrap();
        assert_eq!(restored, index);
        assert_eq!(restored.postings(&Term::from("alpha")).unwrap().tf_of(a), Some(4));
        assert_eq!(restored.doc_len(a), Some(5));
        assert_eq!(restored.doc_len(b), Some(1));

        // Sealed path: identical to sealing the source index, including the
        // persisted block-max score bounds and rebuilt norms.
        let (shard, _) = read_segment_sealed(&buf[..]).unwrap();
        assert_eq!(shard, SealedShard::from_index(&index));
        assert!(shard.has_scoring());
        assert!(shard.postings(&Term::from("alpha")).unwrap().max_score() > 0.0);
    }

    #[test]
    fn v2_segments_are_still_readable_as_unscored() {
        // Hand-build a version-2 payload: no doc-length section, no
        // frequency or score sections after each term's block payload.
        let mut payload = Vec::new();
        crate::varint::write_u32(&mut payload, 2).unwrap();
        crate::varint::write_u64(&mut payload, 2).unwrap();
        crate::varint::write_bytes(&mut payload, b"a.txt").unwrap();
        crate::varint::write_bytes(&mut payload, b"b.txt").unwrap();
        crate::varint::write_u64(&mut payload, 1).unwrap();
        let compressed = CompressedPostings::from_sorted(&[FileId(0), FileId(1)]);
        crate::varint::write_bytes(&mut payload, b"alpha").unwrap();
        crate::varint::write_u64(&mut payload, compressed.len() as u64).unwrap();
        assert!(compressed.skips().is_empty());
        crate::varint::write_bytes(&mut payload, compressed.data()).unwrap();

        let buf = forge(&payload);

        let (index, docs) = read_segment(&buf[..]).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(index.postings(&Term::from("alpha")).unwrap().tf_of(FileId(0)), Some(1));
        assert_eq!(index.doc_len(FileId(0)), None);

        let (shard, _) = read_segment_sealed(&buf[..]).unwrap();
        assert!(!shard.has_scoring());
        assert_eq!(shard.postings(&Term::from("alpha")).unwrap().max_score(), 0.0);
    }

    #[test]
    fn empty_index_round_trips() {
        let mut buf = Vec::new();
        let info =
            write_segment(&InMemoryIndex::new(), &DocTable::new(), std::io::Cursor::new(&mut buf))
                .unwrap();
        assert_eq!(info.term_count, 0);
        let (restored, docs) = read_segment(&buf[..]).unwrap();
        assert!(restored.is_empty());
        assert!(docs.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (index, docs) = sample();
        let mut buf = Vec::new();
        write_segment(&index, &docs, std::io::Cursor::new(&mut buf)).unwrap();
        buf[0] = b'X';
        assert!(matches!(read_segment(&buf[..]), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn bit_flip_in_payload_is_caught_by_checksum() {
        let (index, docs) = sample();
        let mut buf = Vec::new();
        write_segment(&index, &docs, std::io::Cursor::new(&mut buf)).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert!(matches!(read_segment(&buf[..]), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn truncated_segment_is_an_error() {
        let (index, docs) = sample();
        let mut buf = Vec::new();
        write_segment(&index, &docs, std::io::Cursor::new(&mut buf)).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_segment(&buf[..]).is_err());
        assert!(read_segment(&buf[..6]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected_even_with_matching_length() {
        // Appending bytes invalidates the checksum; the reader reports
        // corruption rather than silently ignoring the tail.
        let (index, docs) = sample();
        let mut buf = Vec::new();
        write_segment(&index, &docs, std::io::Cursor::new(&mut buf)).unwrap();
        buf.extend_from_slice(b"junk");
        assert!(read_segment(&buf[..]).is_err());
    }

    /// Wraps a hand-built payload in a header whose checksum matches, so the
    /// parser — not the checksum — has to reject it.
    fn forge(payload: &[u8]) -> Vec<u8> {
        let mut buf = SEGMENT_MAGIC.to_vec();
        buf.extend_from_slice(&fnv1a_64(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    /// Both readers must refuse `payload` as corrupt.  A count that reached
    /// `with_capacity`/`reserve` unclamped would abort the test process (or
    /// panic on capacity overflow) instead of returning.
    fn assert_both_readers_reject(payload: &[u8]) {
        let buf = forge(payload);
        assert!(matches!(read_segment(&buf[..]), Err(PersistError::Corrupt(_))));
        assert!(matches!(read_segment_sealed(&buf[..]), Err(PersistError::Corrupt(_))));
    }

    /// A v3 payload up to and including an empty doc table and empty
    /// document-length section.
    fn empty_front_matter() -> Vec<u8> {
        let mut payload = Vec::new();
        varint::write_u32(&mut payload, SEGMENT_VERSION).unwrap();
        varint::write_u64(&mut payload, 0).unwrap();
        varint::write_u64(&mut payload, 0).unwrap();
        payload
    }

    #[test]
    fn forged_counts_are_rejected_before_they_size_an_allocation() {
        for huge in [1u64 << 40, u64::MAX] {
            // doc count
            let mut payload = Vec::new();
            varint::write_u32(&mut payload, SEGMENT_VERSION).unwrap();
            varint::write_u64(&mut payload, huge).unwrap();
            assert_both_readers_reject(&payload);

            // document-length count, behind a doc table that is honest
            let mut payload = Vec::new();
            varint::write_u32(&mut payload, SEGMENT_VERSION).unwrap();
            varint::write_u64(&mut payload, 1).unwrap();
            varint::write_bytes(&mut payload, b"a.txt").unwrap();
            varint::write_u64(&mut payload, huge).unwrap();
            assert_both_readers_reject(&payload);

            // term count
            let mut payload = empty_front_matter();
            varint::write_u64(&mut payload, huge).unwrap();
            assert_both_readers_reject(&payload);

            // posting count of one term, which sizes the skip table
            let mut payload = empty_front_matter();
            varint::write_u64(&mut payload, 1).unwrap();
            varint::write_bytes(&mut payload, b"alpha").unwrap();
            varint::write_u64(&mut payload, huge).unwrap();
            payload.extend_from_slice(&[0; 64]);
            assert_both_readers_reject(&payload);
        }
    }

    #[test]
    fn counts_that_fit_the_payload_but_not_its_entries_are_still_errors() {
        // Two documents declared, room for two one-byte entries, but the
        // entries themselves are truncated.
        let mut payload = Vec::new();
        varint::write_u32(&mut payload, SEGMENT_VERSION).unwrap();
        varint::write_u64(&mut payload, 2).unwrap();
        payload.extend_from_slice(&[5, b'a']);
        let buf = forge(&payload);
        assert!(read_segment(&buf[..]).is_err());
        assert!(read_segment_sealed(&buf[..]).is_err());

        // A v1 term declaring more postings than bytes left.
        let mut payload = Vec::new();
        varint::write_u32(&mut payload, 1).unwrap();
        varint::write_u64(&mut payload, 0).unwrap();
        varint::write_u64(&mut payload, 1).unwrap();
        varint::write_bytes(&mut payload, b"alpha").unwrap();
        varint::write_u64(&mut payload, 1 << 40).unwrap();
        payload.extend_from_slice(&[1, 1, 1]);
        assert_both_readers_reject(&payload);

        // A v1 delta that would carry the running id past u64.
        let mut payload = Vec::new();
        varint::write_u32(&mut payload, 1).unwrap();
        varint::write_u64(&mut payload, 0).unwrap();
        varint::write_u64(&mut payload, 1).unwrap();
        varint::write_bytes(&mut payload, b"alpha").unwrap();
        varint::write_u64(&mut payload, 2).unwrap();
        varint::write_u64(&mut payload, 7).unwrap();
        varint::write_u64(&mut payload, u64::MAX).unwrap();
        assert_both_readers_reject(&payload);
    }

    #[test]
    fn dense_lists_with_more_postings_than_bytes_still_load() {
        // A term in every one of 2000 consecutive files compresses to
        // constant-gap blocks: far fewer bytes than postings.  The clamp must
        // count blocks, not postings.
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for i in 0..2000 {
            let id = docs.insert(format!("f{i}"));
            index.insert_file(id, [Term::from("everywhere")]);
        }
        let mut buf = Vec::new();
        let info = write_segment(&index, &docs, std::io::Cursor::new(&mut buf)).unwrap();
        assert!(info.posting_count > buf.len() as u64 / 10);
        let (shard, _) = read_segment_sealed(&buf[..]).unwrap();
        assert_eq!(shard, SealedShard::from_index(&index));
        assert_eq!(read_segment(&buf[..]).unwrap().0, index);
    }

    #[test]
    fn streaming_writer_appends_at_the_writers_position_and_ends_after_the_segment() {
        let (index, docs) = sample();
        let mut alone = Vec::new();
        write_segment(&index, &docs, std::io::Cursor::new(&mut alone)).unwrap();

        let mut cursor = std::io::Cursor::new(b"prefix".to_vec());
        cursor.set_position(6);
        let info = write_segment(&index, &docs, &mut cursor).unwrap();
        assert_eq!(cursor.position(), 6 + info.bytes);
        let written = cursor.into_inner();
        assert_eq!(&written[..6], b"prefix");
        assert_eq!(&written[6..], &alone[..]);
    }

    proptest! {
        /// Any index built from en-bloc file insertions survives a
        /// write → read round trip exactly.
        #[test]
        fn arbitrary_indices_round_trip(
            files in proptest::collection::vec(
                proptest::collection::vec("[a-f]{1,4}", 1..10),
                0..40,
            )
        ) {
            let mut docs = DocTable::new();
            let mut index = InMemoryIndex::new();
            for (i, words) in files.iter().enumerate() {
                let id = docs.insert(format!("f{i}.txt"));
                let mut uniq = words.clone();
                uniq.sort();
                uniq.dedup();
                index.insert_file(id, uniq.iter().map(|w| Term::from(w.as_str())));
            }
            let mut buf = Vec::new();
            let info = write_segment(&index, &docs, std::io::Cursor::new(&mut buf)).unwrap();
            prop_assert_eq!(info.doc_count, docs.len() as u64);
            let (restored, restored_docs) = read_segment(&buf[..]).unwrap();
            prop_assert_eq!(&restored, &index);
            prop_assert_eq!(restored_docs.len(), docs.len());
        }
    }
}
