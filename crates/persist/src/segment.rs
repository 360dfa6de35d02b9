//! The binary segment format.
//!
//! One segment stores one complete index (terms, block-compressed posting
//! lists) together with its document table.  The version-6 layout is:
//!
//! ```text
//! magic   "DSG1"                            4 bytes
//! checksum XXH64(payload), seed 0           8 bytes little-endian
//! payload:
//!   version                                 varint
//!   doc count                               varint
//!   per doc: path, front-coded              bytes shared with the path
//!                                           before (varint), then the rest
//!                                           as length-prefixed bytes
//!   doc-length count                        varint
//!   per length (id ascending):              the file id less the one before
//!                                           (the first: its id), then the
//!                                           length, as varints
//!   term count                              varint
//!   per term (sorted ascending):            one entry, see
//!                                           `dsearch_index::encode_term`
//! ```
//!
//! The term entries are **exactly** what a [`SealedShard`] reads in place
//! (the id and term-frequency blocks of one patched frame-of-reference codec,
//! and one bound byte per list — the quantized largest `tf / (tf + norm)` of
//! its postings, which holds no idf), so serving a segment is decode-free:
//! the file's bytes become the shard's one buffer and ranked queries prune
//! with the persisted bounds.  A shard scores against the
//! documents with a recorded length, so a segment that holds part of a run —
//! what a resumable build seals between two checkpoints, under the whole
//! run's doc table — loads as the shard its index seals to.  (The replicas of
//! an Implementation 3 run are not such parts: [`write_segment_merged`] seals
//! them into one segment, scored against the whole run.)
//!
//! There is one readable version.  The readers look at the version *before*
//! they verify the checksum ([`crate::checksum`]: versions 1–3 were summed
//! with another function), so a file of any other version is a clean
//! [`PersistError::UnsupportedVersion`] — re-indexing is the migration — and
//! never a checksum mismatch.  The checksum makes a truncated, torn or
//! bit-flipped segment a clean [`PersistError::Corrupt`] instead of a garbage
//! index.  It guards against accidents, not adversaries: whoever can write
//! the file can recompute it, so everything behind it is still parsed as
//! hostile input (every count is checked against the bytes left before it
//! sizes anything).

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};

use dsearch_index::varint::{write_bytes, write_varint, Reader};
use dsearch_index::{
    DocTable, FileId, InMemoryIndex, PostingList, SealedShard, SealedTerms, SectionBytes,
};
use dsearch_text::Term;

use crate::checksum::{xxh64, Xxh64};
use crate::error::PersistError;

/// Magic bytes identifying a segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"DSG1";

/// Current segment format version (patched frame-of-reference id and
/// frequency blocks, delta-coded skip entries, a front-coded document table,
/// document lengths under id gaps, one bound byte per list).
pub const SEGMENT_VERSION: u32 = 6;

/// Oldest version the readers still understand.
pub const MIN_SEGMENT_VERSION: u32 = 6;

/// Longest path (in bytes) a segment will accept when reading; protects
/// against corrupt length prefixes.
const MAX_STRING_LEN: u64 = 64 * 1024;

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

/// Writes `index` and `docs` as one segment: [`write_segment_merged`] of one
/// source.
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
pub fn write_segment<W: Write + Seek>(
    index: &InMemoryIndex,
    docs: &DocTable,
    writer: W,
) -> Result<SegmentInfo, PersistError> {
    write_segment_merged(std::slice::from_ref(index), docs, writer)
}

/// Writes `sources` — one index, or the un-joined replicas of one run over
/// the document table `docs` — as **one** segment: the segment of their join
/// ([`dsearch_index::join_all`]), byte for byte, merged in the seal
/// ([`SealedTerms`]) without joining anything.
///
/// The payload streams out through a buffer one sealed chunk of terms at a
/// time — neither a sealed copy of the index nor the encoded payload is ever
/// held whole — while its checksum accumulates; the checksum slot in the
/// header is then patched in place, which is why `writer` must seek.  On
/// return `writer` is positioned at the end of the segment.
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
pub fn write_segment_merged<W: Write + Seek>(
    sources: &[InMemoryIndex],
    docs: &DocTable,
    writer: W,
) -> Result<SegmentInfo, PersistError> {
    write_segment_tallied(sources, docs, writer).map(|(info, _)| info)
}

/// [`write_segment_merged`], which also says how many of the segment's bytes
/// each section took (they add up to [`SegmentInfo::bytes`]).
pub(crate) fn write_segment_tallied<W: Write + Seek>(
    sources: &[InMemoryIndex],
    docs: &DocTable,
    mut writer: W,
) -> Result<(SegmentInfo, SectionBytes), PersistError> {
    let start = writer.stream_position()?;
    writer.write_all(&SEGMENT_MAGIC)?;
    writer.write_all(&[0u8; 8])?;

    // The payload is streamed out a piece at a time — the front matter, then
    // each chunk of term entries as the seal hands it over — folding each
    // piece into the running checksum.
    let mut out = BufWriter::new(&mut writer);
    let mut checksum = Xxh64::new();
    let mut payload_len = 0u64;
    let mut emit = |piece: &[u8]| -> std::io::Result<()> {
        checksum.update(piece);
        payload_len += piece.len() as u64;
        out.write_all(piece)
    };
    // Sealing computes the list bounds exactly as the serving path would, so
    // persisted bounds match in-memory seals bit for bit.
    let sealed = SealedTerms::new(sources);
    let mut front = Vec::new();
    write_varint(&mut front, u64::from(SEGMENT_VERSION));
    write_varint(&mut front, docs.len() as u64);
    let mut previous: &[u8] = &[];
    for (_, path) in docs.iter() {
        let path = path.as_bytes();
        let shared = previous.iter().zip(path).take_while(|(a, b)| a == b).count();
        write_varint(&mut front, shared as u64);
        write_bytes(&mut front, &path[shared..]);
        previous = path;
    }
    write_varint(&mut front, sealed.doc_lens().len() as u64);
    let mut previous = 0;
    for &(id, len) in sealed.doc_lens() {
        write_varint(&mut front, u64::from(id.as_u32() - previous));
        write_varint(&mut front, u64::from(len));
        previous = id.as_u32();
    }
    let term_count = sealed.term_count() as u64;
    write_varint(&mut front, term_count);
    emit(&front)?;

    let mut sections = SectionBytes { docs: HEADER_LEN + front.len() as u64, ..Default::default() };
    let mut posting_count = 0u64;
    sealed.encode(|chunk| {
        posting_count += chunk.postings;
        sections += chunk.sections;
        emit(&chunk.bytes)
    })?;
    out.flush()?;
    drop(out);

    writer.seek(SeekFrom::Start(start + SEGMENT_MAGIC.len() as u64))?;
    writer.write_all(&checksum.finish().to_le_bytes())?;
    writer.seek(SeekFrom::Start(start + HEADER_LEN + payload_len))?;

    let info = SegmentInfo {
        doc_count: docs.len() as u64,
        term_count,
        posting_count,
        bytes: HEADER_LEN + payload_len,
    };
    Ok((info, sections))
}

/// Magic plus checksum.
const HEADER_LEN: u64 = SEGMENT_MAGIC.len() as u64 + 8;

/// What a segment file says before its terms, besides its documents' paths.
struct FrontMatter {
    /// Documents in the doc table.
    doc_count: usize,
    /// Recorded document lengths, id ascending.
    doc_lens: Vec<(FileId, u32)>,
    /// Where the term count, and behind it the term entries, start in the
    /// file's bytes.
    terms_at: usize,
}

/// Checks what a segment file must say before its checksum is believed —
/// magic, then version — and returns where its document table starts.
fn check_header(bytes: &[u8]) -> Result<usize, PersistError> {
    let header = HEADER_LEN as usize;
    if bytes.len() < header {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    if bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(PersistError::Corrupt("bad segment magic".into()));
    }
    // The version is read before the checksum is verified: older versions
    // were checksummed with another function, and theirs must read as an
    // unsupported version, not as corruption.
    let mut reader = Reader::new(bytes, header);
    let version = reader.u32()?;
    if !(MIN_SEGMENT_VERSION..=SEGMENT_VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion { found: version, expected: SEGMENT_VERSION });
    }
    Ok(reader.pos())
}

/// Verifies the checksum of a whole segment file held in `bytes`, then
/// decodes the document table at `docs_at` under the hostile-input rules.
fn verify_and_read_docs(bytes: &[u8], docs_at: usize) -> Result<DocTable, PersistError> {
    let header = HEADER_LEN as usize;
    let expected = u64::from_le_bytes(bytes[SEGMENT_MAGIC.len()..header].try_into().expect("8"));
    if xxh64(&bytes[header..]) != expected {
        return Err(PersistError::Corrupt("segment checksum mismatch".into()));
    }
    let mut reader = Reader::new(bytes, docs_at);
    let doc_count = reader.count(2, "document")?;
    let mut docs = DocTable::with_capacity(doc_count);
    // Front-coded: each path is the start of the one before and a suffix.
    let mut path: Vec<u8> = Vec::new();
    for _ in 0..doc_count {
        let shared = reader.u64()?;
        if shared > path.len() as u64 {
            return Err(PersistError::Corrupt(format!(
                "document path shares {shared} bytes with one of {}",
                path.len()
            )));
        }
        path.truncate(shared as usize);
        path.extend_from_slice(reader.bytes(MAX_STRING_LEN - shared, "document path")?);
        docs.insert(
            std::str::from_utf8(&path)
                .map_err(|_| PersistError::Corrupt("document path is not valid UTF-8".into()))?,
        );
    }
    Ok(docs)
}

/// Steps over the document table at `docs_at` — its paths are
/// [`verify_and_read_docs`]'s, which fails wherever this does — and reads
/// the document lengths behind it.
fn read_front_matter(bytes: &[u8], docs_at: usize) -> Result<FrontMatter, PersistError> {
    let mut reader = Reader::new(bytes, docs_at);
    let doc_count = reader.count(2, "document")?;
    for _ in 0..doc_count {
        reader.u64()?;
        reader.bytes(u64::MAX, "document path")?;
    }
    let len_count = reader.count(2, "document length")?;
    if len_count > doc_count {
        return Err(PersistError::Corrupt("more document lengths than documents".into()));
    }
    let mut doc_lens = Vec::with_capacity(len_count);
    let mut previous = 0u64;
    for i in 0..len_count {
        let (gap, len) = (reader.u32()?, reader.u32()?);
        // Ids index the doc table (which also bounds the norm table the
        // shard sizes from them) and ascend strictly.
        let id = previous + u64::from(gap);
        if id >= doc_count as u64 || (i > 0 && gap == 0) {
            return Err(PersistError::Corrupt(
                "document lengths are not strictly ascending ids of the doc table".into(),
            ));
        }
        doc_lens.push((FileId(id as u32), len));
        previous = id;
    }
    Ok(FrontMatter { doc_count, doc_lens, terms_at: reader.pos() })
}

/// The shard laid over a whole segment file's bytes, its doc table and its
/// recorded document lengths.  With `helper`, the checksum and the doc table
/// are verified and decoded on a helper thread while this one lays the term
/// tables over the same bytes.  Errors come as a reader meets them front to
/// back — magic, version, the checksum (which wins over any parse error),
/// doc table, lengths, terms — and there is no shard before the checksum is
/// in.
fn load_segment(bytes: Vec<u8>, helper: bool) -> Result<Loaded, PersistError> {
    let docs_at = check_header(&bytes)?;
    let verify = |bytes: &[u8]| verify_and_read_docs(bytes, docs_at);
    let front = match read_front_matter(&bytes, docs_at) {
        Ok(front) => front,
        Err(error) => {
            verify(&bytes)?;
            return Err(error);
        }
    };
    let (doc_count, terms_at) = (front.doc_count as u64, front.terms_at);
    let (shard, docs) =
        SealedShard::from_bytes_beside(bytes, terms_at, doc_count, &front.doc_lens, helper, verify);
    let docs = docs?;
    Ok(Loaded { shard: shard?, docs, doc_lens: front.doc_lens })
}

/// A segment file, loaded.
struct Loaded {
    shard: SealedShard,
    docs: DocTable,
    /// Recorded document lengths, id ascending.
    doc_lens: Vec<(FileId, u32)>,
}

/// Threads this machine runs at once.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The smallest part a file is read in: a file of one part is read by one
/// thread.
const PART: usize = 1 << 20;

/// A segment file's bytes, read by up to `threads` threads at once (the
/// caller's among them) into one buffer sized from the file's length, so
/// that the fresh buffer's page faults and the copy run on every thread.  A
/// file that grew since is read on to its end; one that shrank is an error,
/// never a short buffer.
fn read_file(file: &File, threads: usize) -> std::io::Result<Vec<u8>> {
    let len = usize::try_from(file.metadata()?.len())
        .map_err(|_| std::io::Error::from(std::io::ErrorKind::OutOfMemory))?;
    read_in_parts(file, len, PART, threads)
}

/// [`read_file`] of a file `len` bytes long, cut into one part a thread, each
/// at least `part` bytes long.
#[cfg(unix)]
fn read_in_parts(
    mut file: &File,
    len: usize,
    part: usize,
    threads: usize,
) -> std::io::Result<Vec<u8>> {
    use std::os::unix::fs::FileExt;
    let mut bytes = vec![0; len];
    let part = len.div_ceil(threads.max(1)).max(part).max(1);
    std::thread::scope(|scope| {
        let mut parts = bytes.chunks_mut(part).zip((0..).step_by(part));
        let mine = parts.next();
        let others: Vec<_> =
            parts.map(|(part, at)| scope.spawn(move || file.read_exact_at(part, at))).collect();
        let read = mine.map_or(Ok(()), |(part, at)| file.read_exact_at(part, at));
        others.into_iter().fold(read, |read, other| {
            read.and(other.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
        })
    })?;
    file.seek(SeekFrom::Start(len as u64))?;
    file.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// [`read_file`] of a file `len` bytes long, in one part.
#[cfg(not(unix))]
fn read_in_parts(
    mut file: &File,
    len: usize,
    _part: usize,
    _threads: usize,
) -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::with_capacity(len);
    file.read_to_end(&mut bytes)?;
    if bytes.len() < len {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(bytes)
}

fn read_whole<R: Read>(mut reader: R) -> Result<Vec<u8>, PersistError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// The mutable index of a loaded segment.
fn into_index(
    Loaded { shard, docs, doc_lens }: Loaded,
) -> Result<(InMemoryIndex, DocTable), PersistError> {
    let mut index = InMemoryIndex::with_capacity(shard.term_count());
    let (mut ids, mut tfs) = (Vec::new(), Vec::new());
    for (term, compressed) in shard.iter() {
        compressed.decode_into(&mut ids);
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(PersistError::Corrupt("posting ids are not strictly ascending".into()));
        }
        compressed.decode_freqs_into(&mut tfs);
        tfs.resize(ids.len(), 1);
        // Bulk insert: one map operation per term, every posting an append.
        let list: PostingList = ids.iter().copied().zip(tfs.iter().copied()).collect();
        index.insert_term_list(Term::from(term), list);
    }
    for (file, len) in doc_lens {
        index.note_doc_len(file, len);
    }
    // Restore the file counter the shard scores against.
    for _ in 0..shard.file_count() {
        index.note_file_done();
    }
    Ok((index, docs))
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
    into_index(load_segment(read_whole(reader)?, cores() > 1)?)
}

/// Reads one segment straight into a [`SealedShard`] — the serving load
/// path: the file's bytes are read once and become the shard's one buffer;
/// no posting is decoded and nothing is copied out but the doc table, which
/// is decoded beside the term tables, on a helper thread where there is a
/// second core.
///
/// # Errors
///
/// Fails like [`read_segment`].
pub fn read_segment_sealed<R: Read>(reader: R) -> Result<(SealedShard, DocTable), PersistError> {
    let Loaded { shard, docs, .. } = load_segment(read_whole(reader)?, cores() > 1)?;
    Ok((shard, docs))
}

/// [`read_segment`] of a segment file, on `threads` threads: the file read
/// in parts ([`read_file`]), verified beside the term tables.
pub(crate) fn read_segment_file(
    file: File,
    threads: usize,
) -> Result<(InMemoryIndex, DocTable), PersistError> {
    into_index(load_segment(read_file(&file, threads)?, threads > 1)?)
}

/// [`read_segment_sealed`] of a segment file, on `threads` threads: the
/// file read in parts ([`read_file`]), verified beside the term tables.
pub(crate) fn read_sealed_file(
    file: File,
    threads: usize,
) -> Result<(SealedShard, DocTable), PersistError> {
    let Loaded { shard, docs, .. } = load_segment(read_file(&file, threads)?, threads > 1)?;
    Ok((shard, docs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_index::PostingCursor;
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
        // The tally accounts for every byte, section by section.
        let (tallied, sections) = write_segment_tallied(
            std::slice::from_ref(&index),
            &docs,
            std::io::Cursor::new(Vec::new()),
        )
        .unwrap();
        assert_eq!((tallied, sections.total()), (info, info.bytes));
        assert_eq!(sections.scores, 4, "one bound byte per term");
        assert_eq!(sections.dictionary, 4 * 2 + "alphabetagammadelta".len() as u64);
        assert_eq!((sections.skips, sections.tfs), (0, 4), "single blocks, every tf 1");

        let (restored, restored_docs) = read_segment(&buf[..]).unwrap();
        assert_eq!(restored, index);
        assert_eq!(restored_docs.len(), docs.len());
        for (id, path) in docs.iter() {
            assert_eq!(restored_docs.path(id), Some(path));
        }
        assert_eq!(restored.file_count(), 3);
    }

    #[test]
    fn other_versions_are_a_clean_unsupported_version() {
        for version in [1, 2, 3, 4, 5, SEGMENT_VERSION + 1] {
            // Under this version's checksum, and under one it would refuse
            // (a real file of versions 1–3 carries another function's): the
            // version decides first.
            let payload = varints(&[u64::from(version), 0, 0]);
            let foreign = [&SEGMENT_MAGIC[..], &[0u8; 8], &payload].concat();
            for buf in [forge(&payload), foreign] {
                for err in [read_segment(&buf[..]).err(), read_segment_sealed(&buf[..]).err()] {
                    assert!(
                        matches!(err, Some(PersistError::UnsupportedVersion { found, .. }) if found == version),
                        "version {version}: {err:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn partial_replicas_load_as_the_shard_their_index_seals_to() {
        // A segment of part of a run (a resumable build's seal) indexes some
        // of the files but carries the whole run's doc table.  Its norms and
        // idfs come from the part's own lengths and document count, so the
        // loaded shard must score against that population too.
        let mut docs = DocTable::new();
        let ids: Vec<FileId> = (0..6).map(|i| docs.insert(format!("f{i}.txt"))).collect();
        let mut replica = InMemoryIndex::new();
        replica.insert_file_counted(ids[1], [(Term::from("alpha"), 3u32), (Term::from("beta"), 1)]);
        replica.insert_file_counted(ids[4], [(Term::from("alpha"), 1u32)]);
        let mut buf = Vec::new();
        write_segment(&replica, &docs, std::io::Cursor::new(&mut buf)).unwrap();
        // Sealed path: identical to sealing the source index, including the
        // persisted list bounds and rebuilt norms.
        let (shard, loaded_docs) = read_segment_sealed(&buf[..]).unwrap();
        assert_eq!(loaded_docs.len(), 6);
        assert_eq!(shard.file_count(), 2);
        assert_eq!(shard, SealedShard::from_index(&replica));
        assert!(shard.has_scoring());
        assert!(shard.postings(&Term::from("alpha")).unwrap().bound() > 0);
        // Mutable path: tfs and doc lens restored exactly.
        let (restored, _) = read_segment(&buf[..]).unwrap();
        assert_eq!(restored, replica);
        assert_eq!(restored.postings(&Term::from("alpha")).unwrap().tf_of(ids[1]), Some(3));
        assert_eq!((restored.doc_len(ids[1]), restored.doc_len(ids[0])), (Some(4), None));
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
    fn damaged_segments_are_rejected() {
        let (index, docs) = sample();
        let mut good = Vec::new();
        write_segment(&index, &docs, std::io::Cursor::new(&mut good)).unwrap();
        let read = |buf: &[u8]| (read_segment(buf).err(), read_segment_sealed(buf).is_err());
        // Bad magic, a flipped payload bit and appended bytes (which the
        // checksum covers) are corruption; a cut file is at least an error.
        let (mut magic, mut flipped) = (good.clone(), good.clone());
        magic[0] = b'X';
        *flipped.last_mut().unwrap() ^= 0x40;
        for buf in [magic, flipped, [&good[..], b"junk"].concat()] {
            assert!(matches!(read(&buf), (Some(PersistError::Corrupt(_)), true)));
        }
        for keep in [good.len() - 3, 6] {
            assert!(matches!(read(&good[..keep]), (Some(_), true)));
        }
    }

    /// The error of loading `bytes`, the same with a helper thread as without.
    fn load_error(bytes: &[u8]) -> String {
        let [beside, alone] =
            [true, false].map(|helper| match load_segment(bytes.to_vec(), helper) {
                Ok(_) => panic!("damaged bytes loaded"),
                Err(error) => error.to_string(),
            });
        assert_eq!(beside, alone);
        beside
    }

    #[test]
    fn a_stale_checksum_wins_over_every_parse_error() {
        let (index, docs) = sample();
        let mut good = Vec::new();
        write_segment(&index, &docs, std::io::Cursor::new(&mut good)).unwrap();
        let header = HEADER_LEN as usize;
        let at = |needle: &[u8]| good.windows(needle.len()).rposition(|w| w == needle).unwrap();
        // The first path shares bytes with a path before it, which it lacks;
        // a length names a document past the table; a term is not UTF-8.
        let doc_table = (header + 2, 5);
        let doc_lens = (at(&[3, 0, 2]) + 1, 7);
        let term = (at(b"alpha"), 0xff);
        let damage = |flips: &[(usize, u8)]| {
            let mut bytes = good.clone();
            flips.iter().for_each(|&(at, value)| bytes[at] = value);
            bytes
        };
        for (flip, parse_error) in [
            (doc_table, "shares 5 bytes with one of 0"),
            (doc_lens, "not strictly ascending ids"),
            (term, "term is not valid UTF-8"),
        ] {
            let stale = damage(&[flip]);
            assert_eq!(load_error(&stale), "corrupt persisted data: segment checksum mismatch");
            assert!(matches!(read_segment_sealed(&stale[..]), Err(PersistError::Corrupt(_))));
            // The same bytes under a checksum that matches are the parse
            // error the checksum hid.
            let forged = forge(&stale[header..]);
            assert!(load_error(&forged).contains(parse_error), "{}", load_error(&forged));
        }
        // Several parse errors: the first in the file is the one reported,
        // as a reader front to back would meet them.
        let forged = |flips: &[(usize, u8)]| load_error(&forge(&damage(flips)[header..]));
        assert!(forged(&[doc_table, doc_lens, term]).contains("shares 5 bytes"));
        assert!(forged(&[doc_lens, term]).contains("not strictly ascending ids"));
    }

    /// A file of `bytes` in the temp directory, removed on drop.
    struct TempFile(std::path::PathBuf);

    impl TempFile {
        fn new(bytes: &[u8]) -> Self {
            use std::sync::atomic::{AtomicUsize, Ordering};
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let name = format!(
                "dsearch-segment-read-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            );
            let path = std::env::temp_dir().join(name);
            std::fs::write(&path, bytes).unwrap();
            TempFile(path)
        }

        fn open(&self) -> File {
            File::open(&self.0).unwrap()
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn a_file_shorter_than_its_length_is_an_error_and_a_longer_one_is_read_whole() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let file = TempFile::new(&bytes);
        for (part, threads) in [(1, 3), (64, 2), (333, 4), (1000, 2), (4096, 1)] {
            for short_by in [1, 64, 500] {
                let read = read_in_parts(&file.open(), bytes.len() + short_by, part, threads);
                assert_eq!(read.unwrap_err().kind(), std::io::ErrorKind::UnexpectedEof);
            }
            // Grown since its length was taken: read on to its end.
            for len in [0, 1, 999] {
                assert_eq!(read_in_parts(&file.open(), len, part, threads).unwrap(), bytes);
            }
        }
        assert_eq!(read_file(&file.open(), 4).unwrap(), bytes);
        // Through the readers: a cut file is an error, not a short shard.
        let (index, docs) = sample();
        let mut segment = Vec::new();
        write_segment(&index, &docs, std::io::Cursor::new(&mut segment)).unwrap();
        let cut = TempFile::new(&segment[..segment.len() - 1]);
        assert!(read_sealed_file(cut.open(), 2).is_err());
        assert!(read_segment_file(cut.open(), 2).is_err());
        let whole = TempFile::new(&segment);
        assert_eq!(
            read_sealed_file(whole.open(), 3).unwrap(),
            read_segment_sealed(&segment[..]).unwrap()
        );
    }

    /// Wraps a hand-built payload in a header whose checksum matches, so the
    /// parser — not the checksum — has to reject it.
    fn forge(payload: &[u8]) -> Vec<u8> {
        let mut buf = SEGMENT_MAGIC.to_vec();
        buf.extend_from_slice(&xxh64(payload).to_le_bytes());
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

    /// A hand-built payload of small numbers: its varints, in order (a byte
    /// below 0x80 is its own varint).
    fn varints(values: &[u64]) -> Vec<u8> {
        let mut payload = Vec::new();
        values.iter().for_each(|&value| write_varint(&mut payload, value));
        payload
    }

    #[test]
    fn forged_counts_are_rejected_before_they_size_an_allocation() {
        let version = u64::from(SEGMENT_VERSION);
        for huge in [1u64 << 40, u64::MAX] {
            // The doc count; the document-length count, behind an honest
            // one-document table; the term count, behind empty tables.
            assert_both_readers_reject(&varints(&[version, huge]));
            assert_both_readers_reject(&varints(&[version, 1, 0, 1, b'a'.into(), huge]));
            assert_both_readers_reject(&varints(&[version, 0, 0, huge]));
            // The bytes a path claims to share with the one before it.
            assert_both_readers_reject(&varints(&[version, 1, huge, 0]));
        }
        // A count that fits the payload but not its entries: two documents
        // declared, room for two two-byte entries, the entries truncated.
        let buf = forge(&varints(&[version, 2, 0, 5, b'a'.into(), b'b'.into()]));
        assert!(read_segment(&buf[..]).is_err());
        assert!(read_segment_sealed(&buf[..]).is_err());
    }

    #[test]
    fn front_coded_paths_are_rebuilt_under_the_hostile_input_rules() {
        let version = u64::from(SEGMENT_VERSION);
        // `ab`, then `a` + `c`: an honest table, no lengths, no terms.
        let honest = [version, 2, 0, 2, b'a'.into(), b'b'.into(), 1, 1, b'c'.into(), 0, 0];
        let (_, docs) = read_segment_sealed(&forge(&varints(&honest))[..]).unwrap();
        assert_eq!(docs.iter().map(|(_, path)| path).collect::<Vec<_>>(), ["ab", "ac"]);
        // More shared bytes than the path before has (the first has none).
        assert_both_readers_reject(&varints(&[version, 1, 1, 0, 0, 0]));
        assert_both_readers_reject(&varints(&[version, 2, 0, 1, b'a'.into(), 2, 0, 0, 0]));
        // Each half valid on its own terms, the rebuilt path not UTF-8: the
        // first byte of `é`, then `a`.
        assert_both_readers_reject(&varints(&[version, 2, 0, 2, 0xc3, 0xa9, 1, 1, b'a'.into()]));
        // A rebuilt path over the limit, from two parts under it.
        let mut long = varints(&[version, 2, 0, MAX_STRING_LEN]);
        long.extend(std::iter::repeat_n(b'a', MAX_STRING_LEN as usize));
        long.extend(varints(&[MAX_STRING_LEN, 1, b'a'.into(), 0, 0]));
        assert_both_readers_reject(&long);
    }

    #[test]
    fn document_lengths_are_id_gaps_under_the_hostile_input_rules() {
        let version = u64::from(SEGMENT_VERSION);
        // Three documents `a`, `b`, `c`; lengths for some of them as (gap,
        // length) pairs; no terms.
        let front = |lens: &[u64]| {
            let mut values =
                vec![version, 3, 0, 1, b'a'.into(), 0, 1, b'b'.into(), 0, 1, b'c'.into()];
            values.push(lens.len() as u64 / 2);
            values.extend_from_slice(lens);
            values.push(0);
            varints(&values)
        };
        let lens = |payload: &[u8]| -> Vec<(FileId, u32)> {
            let bytes = forge(payload);
            read_front_matter(&bytes, check_header(&bytes).unwrap()).unwrap().doc_lens
        };
        assert_eq!(lens(&front(&[0, 5, 2, 7])), [(FileId(0), 5), (FileId(2), 7)]);
        assert_eq!(lens(&front(&[1, 5, 1, 7])), [(FileId(1), 5), (FileId(2), 7)]);
        // A repeated id, and an id past the doc table.
        assert_both_readers_reject(&front(&[1, 5, 0, 7]));
        assert_both_readers_reject(&front(&[1, 5, 2, 7]));
        assert_both_readers_reject(&front(&[3, 5]));
        assert_both_readers_reject(&front(&[1, 5, u64::from(u32::MAX), 7]));
    }

    #[test]
    fn dense_lists_with_more_postings_than_bytes_still_load() {
        // A term in every one of 2000 consecutive files compresses to
        // width-0 blocks: far fewer bytes than postings.  The clamp must
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
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// A file read in parts is the file read whole, byte for byte: no
        /// bytes, one, a part less or more one, several parts.
        #[test]
        fn reading_in_parts_reads_what_reading_whole_reads(
            len in (0usize..10, 66usize..2000)
                .prop_map(|(pick, many)| [0, 1, 63, 64, 65].get(pick).copied().unwrap_or(many)),
            seed in any::<u8>(),
        ) {
            let bytes: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect();
            let file = TempFile::new(&bytes);
            let mut whole = Vec::new();
            file.open().read_to_end(&mut whole).unwrap();
            for (part, threads) in [(64, 2), (1, 3), (len.max(1), 2), (7, 5), (PART, 2)] {
                prop_assert_eq!(&read_in_parts(&file.open(), len, part, threads).unwrap(), &whole);
            }
            for threads in [1, 2, 5] {
                prop_assert_eq!(&read_file(&file.open(), threads).unwrap(), &whole);
            }
        }
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

        /// Hostile bytes behind a matching checksum: a truncated segment is
        /// always an error, and a bit-flipped one is an error or a shard
        /// whose every list reads to its end — never a panic.
        #[test]
        fn flipped_and_truncated_segments_never_panic(
            files in proptest::collection::vec(
                proptest::collection::vec(("[a-d]{1,3}", 1u32..5), 1..8),
                1..300,
            ),
            at in 0usize..1_000_000,
            bit in 0u8..8,
        ) {
            let mut docs = DocTable::new();
            let mut index = InMemoryIndex::new();
            for (i, words) in files.iter().enumerate() {
                let id = docs.insert(format!("f{i}.txt"));
                let mut uniq = words.clone();
                uniq.sort();
                uniq.dedup_by(|a, b| a.0 == b.0);
                index.insert_file_counted(
                    id,
                    uniq.iter().map(|(w, tf)| (Term::from(w.as_str()), *tf)),
                );
            }
            let mut buf = Vec::new();
            write_segment(&index, &docs, std::io::Cursor::new(&mut buf)).unwrap();
            let payload = &buf[HEADER_LEN as usize..];
            let at = at % payload.len();

            let truncated = forge(&payload[..at]);
            prop_assert!(read_segment_sealed(&truncated[..]).is_err());
            prop_assert!(read_segment(&truncated[..]).is_err());

            let mut flipped = payload.to_vec();
            flipped[at] ^= 1 << bit;
            let flipped = forge(&flipped);
            let _ = read_segment(&flipped[..]);
            if let Ok((shard, _)) = read_segment_sealed(&flipped[..]) {
                for (term, list) in shard.iter() {
                    prop_assert!(shard.postings(&Term::from(term)).is_some());
                    let mut cursor = list.cursor();
                    let mut walked = 0usize;
                    while cursor.current().is_some() {
                        walked += cursor.current_tf().min(1) as usize;
                        cursor.advance();
                    }
                    prop_assert!(walked <= list.len());
                    let (mut ids, mut tfs) = (Vec::new(), Vec::new());
                    list.decode_into(&mut ids);
                    list.decode_freqs_into(&mut tfs);
                    prop_assert_eq!(ids.len(), list.len());
                    let _ = list.cursor().seek(FileId(u32::MAX));
                }
                let _ = shard.prefix_postings("a").count();
            }
        }
    }
}
