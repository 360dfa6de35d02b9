//! The binary formats of a store's files: term-only segments and the doc
//! file every segment of the store is over ([`crate::store`]).  The
//! version-12 layouts are:
//!
//! ```text
//! segment                                   doc file
//! magic   "DSG1"              4 bytes       magic   "DSD1"         4 bytes
//! checksum XXH64(payload)     8 bytes LE    checksum XXH64(payload) 8 bytes LE
//! payload:                                  payload:
//!   version                   varint          version              varint
//!   doc count                 varint          doc count            varint
//!   doc-length count          varint          per doc (path ascending):
//!   per length (id ascending)                   front, head, middle, id
//!   term count                varint
//!   per term (sorted ascending): one entry, see `dsearch_index::encode_term`
//! ```
//!
//! With a length for every document, each is the step from the one before
//! (zigzag; ids 0, 1, … go unstored, numbered smallest file first, so the
//! lengths nearly ascend), else an id gap then the length.  A path is the
//! bytes it shares with the path before at the front (varint), a head
//! (`varint::write_head`) of the bytes it shares with what is left of that
//! path at the back and of its middle's length, then the middle and its id.
//!
//! Nothing is stored that the reader can derive.  The doc table is listed in
//! path order, whatever order Stage 1 numbered the files in (smallest first,
//! see `dsearch_core::stage1`): the paths front-code as well as they can, and
//! an entry's position is its id's rank among the paths, which search results
//! break ties by ([`DocTable::path_ranks`]) — so a load sorts nothing.  The
//! loader puts each path at its id and refuses an id past the table, an id
//! listed twice and an entry whose `(path, id)` is not above the one before
//! (a path listed twice comes with ascending ids).  A segment keeps its doc
//! count, so that its ids and lengths are checked inside it (its id universe
//! — one past its largest posting id — may not pass it); a store refuses a
//! segment whose count is not its doc file's.  The term entries are
//! **exactly** what a [`SealedShard`] reads in place: front-coded terms
//! (every 16th whole, each behind a one-byte head where it can); a list of
//! 6 to 128 postings as one stream behind its byte length — its ids by
//! binary interpolative coding over the id universe, its tfs above 1 as
//! positions coded the same way and Elias-γ values; any other list's id and
//! term-frequency blocks of one patched frame-of-reference codec whose
//! exceptions are bit-packed, their positions as gaps, back to back with no
//! lengths or offsets (each block's header says how long it is), every
//! block's first id after a list's first stored as a gap from the block
//! before; and one bound byte per list — the quantized largest
//! `tf / (tf + norm)` of its postings, which holds no idf.  So serving a
//! segment is decode-free: the file's bytes become the shard's one buffer
//! and ranked queries prune with the persisted bounds.  A shard scores
//! against the documents with a recorded length, so a segment that holds
//! part of a run — what a resumable build seals between two checkpoints —
//! loads as the shard its index seals to.  (The replicas of an
//! Implementation 3 run are not such parts: [`write_segment_merged`] seals
//! them into one segment, scored against the whole run.)
//!
//! There is one readable version.  The readers look at the version *before*
//! they verify the checksum ([`crate::checksum`]: versions 1–3 were summed
//! with another function), so a file of any other version is a clean
//! [`PersistError::UnsupportedVersion`] — re-indexing is the migration — and
//! never a checksum mismatch.  The checksum makes a truncated, torn or
//! bit-flipped file a clean [`PersistError::Corrupt`] instead of a garbage
//! index.  It guards against accidents, not adversaries: whoever can write
//! the file can recompute it, so everything behind it is still parsed as
//! hostile input (every count is checked against the bytes left before it
//! sizes anything).

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};

use dsearch_index::varint::{write_head, write_varint, Reader};
use dsearch_index::{
    DocTable, FileId, InMemoryIndex, PathOrderedDocs, PostingList, SealedShard, SealedTerms,
    SectionBytes,
};
use dsearch_text::Term;

use crate::checksum::{xxh64, Xxh64};
use crate::error::PersistError;

/// Magic bytes identifying a segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"DSG1";

/// Magic bytes identifying a doc file.
pub const DOCS_MAGIC: [u8; 4] = *b"DSD1";

/// Current format version of segments and doc files.  Version 12 coded
/// every list in blocks, version 11 held the doc table in every segment;
/// their answers were this version's.
pub const SEGMENT_VERSION: u32 = 13;

/// The longest segment file a shard can lay over: its offsets are `u32`.
const MAX_SEGMENT_BYTES: u64 = u32::MAX as u64;

/// Longest path (in bytes) a doc file will accept when reading; protects
/// against corrupt length prefixes.
const MAX_STRING_LEN: u64 = 64 * 1024;

/// Summary of a written segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Number of documents in the doc table the segment is over.
    pub doc_count: u64,
    /// Number of distinct terms.
    pub term_count: u64,
    /// Number of `(term, file)` postings.
    pub posting_count: u64,
    /// Encoded size in bytes (including header).
    pub bytes: u64,
}

/// Writes `index`, over a doc table of `doc_count` documents, as one
/// segment: [`write_segment_merged`] of one source.
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
pub fn write_segment<W: Write + Seek>(
    index: &InMemoryIndex,
    doc_count: usize,
    writer: W,
) -> Result<SegmentInfo, PersistError> {
    write_segment_merged(std::slice::from_ref(index), doc_count, writer).map(|(info, _)| info)
}

/// Writes `sources` — one index, or the un-joined replicas of one run over
/// a doc table of `doc_count` documents — as **one** segment: the segment of
/// their join ([`dsearch_index::join_all`]), byte for byte, merged in the
/// seal ([`SealedTerms`]) without joining anything.  Also says how many of
/// the segment's bytes each section took (they add up to
/// [`SegmentInfo::bytes`]).
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
    doc_count: usize,
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
    write_varint(&mut front, doc_count as u64);
    let doc_lens = sealed.doc_lens();
    write_varint(&mut front, doc_lens.len() as u64);
    // A length for every document: the ids are 0, 1, … and go unstored, and
    // each length is a step from the one before.
    let dense = doc_lens.len() == doc_count;
    debug_assert!(!dense || doc_lens.iter().enumerate().all(|(i, &(id, _))| id.as_usize() == i));
    let (mut previous_id, mut previous_len) = (0, 0);
    for &(id, len) in doc_lens {
        if dense {
            write_varint(&mut front, zigzag(i64::from(len) - i64::from(previous_len)));
        } else {
            write_varint(&mut front, u64::from(id.as_u32() - previous_id));
            write_varint(&mut front, u64::from(len));
        }
        (previous_id, previous_len) = (id.as_u32(), len);
    }
    let term_count = sealed.term_count() as u64;
    write_varint(&mut front, term_count);
    write_varint(&mut front, sealed.universe());
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
        doc_count: doc_count as u64,
        term_count,
        posting_count,
        bytes: HEADER_LEN + payload_len,
    };
    Ok((info, sections))
}

/// Writes `docs` as a doc file; returns its length in bytes.
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
pub fn write_docs<W: Write>(docs: &DocTable, mut writer: W) -> Result<u64, PersistError> {
    let mut payload = Vec::new();
    write_varint(&mut payload, u64::from(SEGMENT_VERSION));
    write_varint(&mut payload, docs.len() as u64);
    // In `(path, id)` order, each path followed by its id.
    let mut previous: &[u8] = &[];
    for id in docs.ids_by_path() {
        let path = docs.path(id).expect("an id of the table").as_bytes();
        let (at_front, at_back) = shared_ends(previous, path);
        write_varint(&mut payload, at_front as u64);
        let middle = &path[at_front..path.len() - at_back];
        write_head(&mut payload, at_back as u64, middle.len() as u64);
        payload.extend_from_slice(middle);
        write_varint(&mut payload, u64::from(id.as_u32()));
        previous = path;
    }
    writer.write_all(&DOCS_MAGIC)?;
    writer.write_all(&xxh64(&payload).to_le_bytes())?;
    writer.write_all(&payload)?;
    Ok(HEADER_LEN + payload.len() as u64)
}

/// Magic plus checksum.
const HEADER_LEN: u64 = SEGMENT_MAGIC.len() as u64 + 8;

/// What a segment file says before its terms.
pub(crate) struct FrontMatter {
    /// Documents in the doc table the segment is over.
    pub(crate) doc_count: u64,
    /// Recorded document lengths, id ascending.
    doc_lens: Vec<(FileId, u32)>,
    /// Where the term count and the entries behind it start.
    terms_at: usize,
}

/// Checks what a `kind` of file must say before its checksum is believed —
/// `magic`, then the version — and returns where the rest of it starts.
fn check_header(bytes: &[u8], magic: [u8; 4], kind: &str) -> Result<usize, PersistError> {
    let header = HEADER_LEN as usize;
    if bytes.len() < header {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    if bytes[..magic.len()] != magic {
        return Err(PersistError::Corrupt(format!("bad {kind} magic")));
    }
    // The version is read before the checksum is verified: older versions
    // were checksummed with another function, and theirs must read as an
    // unsupported version, not as corruption.
    let mut reader = Reader::new(bytes, header);
    let version = reader.u32()?;
    if version != SEGMENT_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version, expected: SEGMENT_VERSION });
    }
    Ok(reader.pos())
}

/// Verifies the checksum of a whole file of `kind` held in `bytes`.
fn verify(bytes: &[u8], kind: &str) -> Result<(), PersistError> {
    let header = HEADER_LEN as usize;
    let expected = u64::from_le_bytes(bytes[SEGMENT_MAGIC.len()..header].try_into().expect("8"));
    if xxh64(&bytes[header..]) != expected {
        return Err(PersistError::Corrupt(format!("{kind} checksum mismatch")));
    }
    Ok(())
}

/// Decodes a whole doc file held in `bytes` under the hostile-input rules.
fn decode_docs(bytes: &[u8]) -> Result<DocTable, PersistError> {
    let docs_at = check_header(bytes, DOCS_MAGIC, "doc file")?;
    verify(bytes, "doc file")?;
    let mut reader = Reader::new(bytes, docs_at);
    let doc_count = reader.count(DOC_ENTRY_BYTES, "document")?;
    let mut docs = PathOrderedDocs::new(doc_count);
    let bad_table = |why: &str| PersistError::Corrupt(why.to_owned());
    // Each path is the start of the one before, a middle, and the end of
    // what is left of the one before.
    let mut path: Vec<u8> = Vec::new();
    for _ in 0..doc_count {
        let DocEntry { front, back, middle, id } = DocEntry::read(&mut reader)?;
        let len = path.len() as u64;
        if front > len {
            return Err(PersistError::Corrupt(format!(
                "document path shares {front} bytes with one of {len}"
            )));
        }
        if back > len - front {
            return Err(PersistError::Corrupt(format!(
                "document path shares {front} bytes at the front and {back} at the back with one of {len}"
            )));
        }
        let (front, back) = (front as usize, back as usize);
        if (front + back) as u64 + middle.len() as u64 > MAX_STRING_LEN {
            return Err(PersistError::Corrupt(format!(
                "document path of {} bytes exceeds the limit {MAX_STRING_LEN}",
                front + middle.len() + back
            )));
        }
        path.splice(front..path.len() - back, middle.iter().copied());
        let text = std::str::from_utf8(&path)
            .map_err(|_| PersistError::Corrupt("document path is not valid UTF-8".into()))?;
        docs.place(id, text).map_err(bad_table)?;
    }
    if reader.remaining() > 0 {
        return Err(PersistError::Corrupt("bytes after the last document".into()));
    }
    docs.finish().map_err(bad_table)
}

/// One entry of the document table, as stored.
struct DocEntry<'a> {
    /// Bytes the path shares with the path before, at the front.
    front: u64,
    /// Bytes it shares with the rest of the path before, at the back.
    back: u64,
    /// The bytes between.
    middle: &'a [u8],
    /// Its file id.
    id: u64,
}

impl<'a> DocEntry<'a> {
    /// The entry at the reader's position, which moves past it.
    fn read(reader: &mut Reader<'a>) -> Result<Self, PersistError> {
        let front = reader.u64()?;
        let (back, len) = reader.head()?;
        let middle = reader.take(len, "document path")?;
        Ok(DocEntry { front, back, middle, id: reader.u64()? })
    }
}

/// The fewest bytes a document entry takes: a front count, a head and an
/// id, one byte each.
const DOC_ENTRY_BYTES: usize = 3;

/// How `path` codes after `previous`: the bytes they share at the front,
/// then the bytes what is left of each shares at the back.
fn shared_ends(previous: &[u8], path: &[u8]) -> (usize, usize) {
    let front = previous.iter().zip(path).take_while(|(a, b)| a == b).count();
    let back = previous[front..]
        .iter()
        .rev()
        .zip(path[front..].iter().rev())
        .take_while(|(a, b)| a == b)
        .count();
    (front, back)
}

/// A step between two lengths as a varint takes it: small steps either way
/// small.
fn zigzag(step: i64) -> u64 {
    ((step << 1) ^ (step >> 63)) as u64
}

/// The step [`zigzag`] coded.
fn unzigzag(coded: u64) -> i64 {
    (coded >> 1) as i64 ^ -((coded & 1) as i64)
}

/// Reads a segment's doc count and the document lengths behind it, from
/// `at` on.
fn read_front_matter(bytes: &[u8], at: usize) -> Result<FrontMatter, PersistError> {
    let mut reader = Reader::new(bytes, at);
    let doc_count = reader.u64()?;
    let len_count = reader.count(1, "document length")?;
    if len_count as u64 > doc_count {
        return Err(PersistError::Corrupt("more document lengths than documents".into()));
    }
    // A length for every document is every document's, in id order, each a
    // step from the one before.
    let dense = len_count as u64 == doc_count;
    let mut doc_lens = Vec::with_capacity(len_count);
    let (mut previous, mut len) = (0u64, 0u32);
    for i in 0..len_count {
        let gap = if dense {
            let step = unzigzag(reader.u64()?);
            len = i64::from(len)
                .checked_add(step)
                .and_then(|len| u32::try_from(len).ok())
                .ok_or_else(|| {
                    PersistError::Corrupt(format!("document length {len} steps {step} out of u32"))
                })?;
            u32::from(i > 0)
        } else {
            let gap = reader.u32()?;
            len = reader.u32()?;
            gap
        };
        // Ids index the doc table and ascend strictly.
        let id = previous + u64::from(gap);
        if id >= doc_count || id > u64::from(u32::MAX) || (i > 0 && gap == 0) {
            return Err(PersistError::Corrupt(
                "document lengths are not strictly ascending ids of the doc table".into(),
            ));
        }
        doc_lens.push((FileId(id as u32), len));
        previous = id;
    }
    Ok(FrontMatter { doc_count, doc_lens, terms_at: reader.pos() })
}

/// The shard laid over a whole segment file's bytes, and its front matter;
/// and what `beside` returned.  With `helper`, the checksum is verified and
/// `beside` run on a helper thread while this one lays the term tables over
/// the same bytes.  Errors come as a reader meets them front to back —
/// magic, version, the checksum (which wins over any parse error), lengths,
/// terms — and there is no shard before the checksum is in.
fn load_segment<X: Send>(
    bytes: Vec<u8>,
    helper: bool,
    beside: impl FnOnce() -> X + Send,
) -> (Result<(SealedShard, FrontMatter), PersistError>, X) {
    let at = match check_header(&bytes, SEGMENT_MAGIC, "segment") {
        Ok(at) => at,
        Err(error) => return (Err(error), beside()),
    };
    let front = match read_front_matter(&bytes, at) {
        Ok(front) => front,
        Err(error) => return (verify(&bytes, "segment").and(Err(error)), beside()),
    };
    let (doc_count, terms_at) = (front.doc_count, front.terms_at);
    let (shard, (verified, beside)) = SealedShard::from_bytes_beside(
        bytes,
        terms_at,
        doc_count,
        &front.doc_lens,
        helper,
        |bytes| (verify(bytes, "segment"), beside()),
    );
    (verified.and_then(|()| Ok((shard?, front))), beside)
}

/// Threads this machine runs at once.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The smallest part a file is read in: a file of one part is read by one
/// thread.
const PART: usize = 1 << 20;

/// A file's bytes, read by up to `threads` threads at once (the caller's
/// among them) into one buffer sized from the file's length, so that the
/// fresh buffer's page faults and the copy run on every thread.  A file that
/// grew since is read on to its end; one that shrank is an error, never a
/// short buffer.  A file longer than a shard can be is refused before
/// anything is allocated for it.
fn read_file(file: &File, threads: usize) -> Result<Vec<u8>, PersistError> {
    let len = file.metadata()?.len();
    if len > MAX_SEGMENT_BYTES {
        return Err(PersistError::Corrupt(format!(
            "a segment of {len} bytes: shards over 4 GiB are not supported"
        )));
    }
    Ok(read_in_parts(file, len as usize, PART, threads)?)
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
    // Grown since: read on, to one byte past what a shard can be at most.
    file.seek(SeekFrom::Start(len as u64))?;
    file.take((MAX_SEGMENT_BYTES + 1).saturating_sub(len as u64)).read_to_end(&mut bytes)?;
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

/// The mutable index of a loaded segment, and its doc count.
pub(crate) fn into_index(
    (shard, FrontMatter { doc_count, doc_lens, .. }): (SealedShard, FrontMatter),
) -> Result<(InMemoryIndex, u64), PersistError> {
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
    index.note_files_done(shard.file_count());
    Ok((index, doc_count))
}

/// Reads one segment, reconstructing the mutable index, and the number of
/// documents of the doc table it is over (the incremental re-indexing path;
/// serving should prefer [`read_segment_sealed`]).
///
/// # Errors
///
/// Fails on I/O errors, a wrong magic number, a checksum mismatch, an
/// unsupported version or any malformed length/delta.
pub fn read_segment<R: Read>(reader: R) -> Result<(InMemoryIndex, u64), PersistError> {
    into_index(load_segment(read_whole(reader)?, cores() > 1, || ()).0?)
}

/// [`read_segment`] straight into a [`SealedShard`] — the serving load path:
/// the file's bytes are read once and become the shard's one buffer, no
/// posting is decoded, and the checksum is verified beside the term tables,
/// on a helper thread where there is a second core.
///
/// # Errors
///
/// Fails like [`read_segment`].
pub fn read_segment_sealed<R: Read>(reader: R) -> Result<(SealedShard, u64), PersistError> {
    let (shard, front) = load_segment(read_whole(reader)?, cores() > 1, || ()).0?;
    Ok((shard, front.doc_count))
}

/// Reads a doc file.
///
/// # Errors
///
/// Fails on I/O errors, a wrong magic number, a checksum mismatch, an
/// unsupported version or a malformed table.
pub fn read_docs<R: Read>(reader: R) -> Result<DocTable, PersistError> {
    decode_docs(&read_whole(reader)?)
}

/// A doc table a store's load decoded beside a segment's term tables, if it
/// decoded one there.
pub(crate) type Docs = Option<Result<DocTable, PersistError>>;

/// [`load_segment`] of the segment file at `path`, read in parts on
/// `threads` threads ([`read_file`]), and what `beside` returned: the store
/// decodes its doc file there, beside the first segment's term tables.
pub(crate) fn read_segment_file(
    path: &std::path::Path,
    threads: usize,
    beside: &(dyn Fn() -> Docs + Sync),
) -> (Result<(SealedShard, FrontMatter), PersistError>, Docs) {
    match File::open(path).map_err(PersistError::from).and_then(|file| read_file(&file, threads)) {
        Ok(bytes) => load_segment(bytes, threads > 1, beside),
        Err(error) => (Err(error), beside()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_index::{PostingCursor, BLOCK_SIZE, SHORT_LIST_MIN};
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

    /// `docs` written as a doc file.
    fn doc_file(docs: &DocTable) -> Vec<u8> {
        let mut buf = Vec::new();
        let bytes = write_docs(docs, &mut buf).unwrap();
        assert_eq!(bytes, buf.len() as u64);
        buf
    }

    #[test]
    fn round_trip_preserves_index_and_docs() {
        let (index, docs) = sample();
        let mut buf = Vec::new();
        let info = write_segment(&index, docs.len(), std::io::Cursor::new(&mut buf)).unwrap();
        assert_eq!(info.doc_count, 3);
        assert_eq!(info.term_count, 4);
        assert_eq!(info.posting_count, 7);
        assert_eq!(info.bytes, buf.len() as u64);
        // The tally accounts for every byte, section by section.
        let (tallied, sections) = write_segment_merged(
            std::slice::from_ref(&index),
            docs.len(),
            std::io::Cursor::new(Vec::new()),
        )
        .unwrap();
        assert_eq!((tallied, sections.total()), (info, info.bytes));
        assert_eq!(sections.scores, 4, "one bound byte per term");
        // Per term a head (nothing in common here, a short rest) and a
        // posting count, beside the text.
        assert_eq!(sections.dictionary, 4 * 2 + "alphabetagammadelta".len() as u64);
        assert_eq!((sections.skips, sections.tfs), (0, 0), "single blocks, every tf 1");

        // The segment's front matter is its header, version, doc count,
        // lengths, term count and id universe: no path.
        assert_eq!(sections.docs, HEADER_LEN + [13, 3, 3, 4, 0, 2, 4, 3].len() as u64);
        let (restored, doc_count) = read_segment(&buf[..]).unwrap();
        assert_eq!(restored, index);
        assert_eq!(doc_count, 3);
        assert_eq!(restored.file_count(), 3);
        let restored_docs = read_docs(&doc_file(&docs)[..]).unwrap();
        assert_eq!(restored_docs, docs);
        for (id, path) in docs.iter() {
            assert_eq!(restored_docs.path(id), Some(path));
        }
    }

    #[test]
    fn other_versions_are_a_clean_unsupported_version() {
        for version in (1..SEGMENT_VERSION).chain([SEGMENT_VERSION + 1]) {
            // Under this version's checksum, and under one it would refuse
            // (a real file of versions 1–3 carries another function's): the
            // version decides first, for a segment and for a doc file.
            let payload = varints(&[u64::from(version), 0, 0, 0]);
            let foreign = [&SEGMENT_MAGIC[..], &[0u8; 8], &payload].concat();
            for buf in [forge(&payload), foreign] {
                let doc_file = [&DOCS_MAGIC[..], &buf[SEGMENT_MAGIC.len()..]].concat();
                for err in [
                    read_segment(&buf[..]).err(),
                    read_segment_sealed(&buf[..]).err(),
                    read_docs(&doc_file[..]).err(),
                ] {
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
        // of the files but is over the whole run's doc table.  Its norms and
        // idfs come from the part's own lengths and document count, so the
        // loaded shard must score against that population too.
        let mut docs = DocTable::new();
        let ids: Vec<FileId> = (0..6).map(|i| docs.insert(format!("f{i}.txt"))).collect();
        let mut replica = InMemoryIndex::new();
        replica.insert_file_counted(ids[1], [(Term::from("alpha"), 3u32), (Term::from("beta"), 1)]);
        replica.insert_file_counted(ids[4], [(Term::from("alpha"), 1u32)]);
        let mut buf = Vec::new();
        write_segment(&replica, docs.len(), std::io::Cursor::new(&mut buf)).unwrap();
        // Sealed path: identical to sealing the source index, including the
        // persisted list bounds and rebuilt norms.
        let (shard, doc_count) = read_segment_sealed(&buf[..]).unwrap();
        assert_eq!(doc_count, 6);
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
        let info = write_segment(&InMemoryIndex::new(), 0, std::io::Cursor::new(&mut buf)).unwrap();
        assert_eq!(info.term_count, 0);
        let (restored, doc_count) = read_segment(&buf[..]).unwrap();
        assert!(restored.is_empty());
        assert_eq!(doc_count, 0);
        assert!(read_docs(&doc_file(&DocTable::new())[..]).unwrap().is_empty());
    }

    #[test]
    fn damaged_segments_are_rejected() {
        let (index, docs) = sample();
        let mut good = Vec::new();
        write_segment(&index, docs.len(), std::io::Cursor::new(&mut good)).unwrap();
        let read = |buf: &[u8]| (read_segment(buf).err(), read_segment_sealed(buf).is_err());
        // Bad magic, a flipped payload bit and appended bytes (which the
        // checksum covers) are corruption; a cut file is at least an error.
        // So for a doc file; and neither reads as the other.
        let good_docs = doc_file(&docs);
        for (good, read) in [
            (&good, &read as &dyn Fn(&[u8]) -> (Option<PersistError>, bool)),
            (&good_docs, &|buf: &[u8]| (read_docs(buf).err(), true)),
        ] {
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
        assert!(matches!(read(&good_docs), (Some(PersistError::Corrupt(_)), true)));
        assert!(matches!(read_docs(&good[..]), Err(PersistError::Corrupt(_))));
    }

    /// The error of loading `bytes`, the same with a helper thread as without.
    fn load_error(bytes: &[u8]) -> String {
        let [beside, alone] =
            [true, false].map(|helper| match load_segment(bytes.to_vec(), helper, || ()).0 {
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
        write_segment(&index, docs.len(), std::io::Cursor::new(&mut good)).unwrap();
        let header = HEADER_LEN as usize;
        let at = |needle: &[u8]| good.windows(needle.len()).rposition(|w| w == needle).unwrap();
        // There are more lengths than documents (three, stepping 2, 0 and
        // +1, zigzag-coded); a term is not UTF-8.
        let doc_lens = (at(&[3, 4, 0, 2, 4]), 4);
        let term = (at(b"alpha"), 0xff);
        let damage = |flips: &[(usize, u8)]| {
            let mut bytes = good.clone();
            flips.iter().for_each(|&(at, value)| bytes[at] = value);
            bytes
        };
        for (flip, parse_error) in
            [(doc_lens, "more document lengths than documents"), (term, "term is not valid UTF-8")]
        {
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
        assert!(forged(&[doc_lens, term]).contains("more document lengths"));
        // The same in a doc file: its first path shares bytes with a path
        // before it, which it lacks.
        let mut stale = doc_file(&docs);
        stale[header + 2] = 5;
        let refused = |bytes: &[u8]| read_docs(bytes).unwrap_err().to_string();
        assert_eq!(refused(&stale), "corrupt persisted data: doc file checksum mismatch");
        let forged = forge_docs(&stale[header..]);
        assert!(refused(&forged).contains("shares 5 bytes with one of 0"), "{}", refused(&forged));
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
        // Through the readers: a cut file is an error, not a short shard,
        // and what runs beside the tables runs whatever the file holds.
        let (index, docs) = sample();
        let mut segment = Vec::new();
        write_segment(&index, docs.len(), std::io::Cursor::new(&mut segment)).unwrap();
        let cut = TempFile::new(&segment[..segment.len() - 1]);
        let beside = || Some(Ok(docs.clone()));
        for path in [&cut.0, &cut.0.with_extension("missing")] {
            let (loaded, ran) = read_segment_file(path, 2, &beside);
            assert!(loaded.is_err() && matches!(ran, Some(Ok(_))));
        }
        let whole = TempFile::new(&segment);
        let (loaded, ran) = read_segment_file(&whole.0, 3, &beside);
        let Ok((shard, front)) = loaded else { panic!("the whole file loads") };
        assert_eq!((shard, front.doc_count), read_segment_sealed(&segment[..]).unwrap());
        assert_eq!(ran.unwrap().unwrap(), docs);
        let docs_file = doc_file(&docs);
        assert!(read_docs(TempFile::new(&docs_file[..docs_file.len() - 1]).open()).is_err());
        assert_eq!(read_docs(TempFile::new(&docs_file).open()).unwrap(), docs);
    }

    /// Wraps a hand-built payload in a header whose checksum matches, so the
    /// parser — not the checksum — has to reject it.
    fn forge(payload: &[u8]) -> Vec<u8> {
        let mut buf = SEGMENT_MAGIC.to_vec();
        buf.extend_from_slice(&xxh64(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    /// [`forge`] of a doc file.
    fn forge_docs(payload: &[u8]) -> Vec<u8> {
        [&DOCS_MAGIC[..], &forge(payload)[SEGMENT_MAGIC.len()..]].concat()
    }

    /// Both readers must refuse `payload` as corrupt.  A count that reached
    /// `with_capacity`/`reserve` unclamped would abort the test process (or
    /// panic on capacity overflow) instead of returning.
    fn assert_both_readers_reject(payload: &[u8]) {
        let buf = forge(payload);
        assert!(matches!(read_segment(&buf[..]), Err(PersistError::Corrupt(_))));
        assert!(matches!(read_segment_sealed(&buf[..]), Err(PersistError::Corrupt(_))));
    }

    /// The doc file reader must refuse `payload` as corrupt, as above.
    fn assert_docs_rejected(payload: &[u8]) {
        assert!(matches!(read_docs(&forge_docs(payload)[..]), Err(PersistError::Corrupt(_))));
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
            // The document-length count, over a one-document table; the term
            // count, over an empty one.
            assert_both_readers_reject(&varints(&[version, 1, huge]));
            assert_both_readers_reject(&varints(&[version, 0, 0, huge]));
            // A segment's doc count sizes nothing: it loads, and a store
            // refuses it beside its doc file.
            let (shard, doc_count) =
                read_segment_sealed(&forge(&varints(&[version, huge, 0, 0, 0]))[..]).unwrap();
            assert_eq!((shard.term_count(), doc_count), (0, huge));
            // A doc file's doc count; the bytes a path claims to share with
            // the one before it, at the front and at the back, and the
            // length of its middle.
            assert_docs_rejected(&varints(&[version, huge]));
            assert_docs_rejected(&varints(&[version, 1, huge, 0, 0, 0]));
            assert_docs_rejected(&varints(&[version, 1, 0, 0x0f, huge, 0, 0]));
            assert_docs_rejected(&varints(&[version, 1, 0, 0xf0, huge, 0, 0]));
        }
        // A count that fits the payload but not its entries: two documents
        // declared, room for two three-byte entries, the entries truncated.
        assert!(read_docs(&forge_docs(&varints(&[version, 2, 0, 0x50, 97, 98]))[..]).is_err());
    }

    #[test]
    fn front_coded_paths_are_rebuilt_under_the_hostile_input_rules() {
        let version = u64::from(SEGMENT_VERSION);
        // An entry: the bytes shared at the front, a head of the bytes
        // shared at the back and the middle's length, the middle, the id.
        let entry = |front: u64, back: u64, middle: &[u8], id: u64| {
            let mut bytes = varints(&[front]);
            write_head(&mut bytes, back, middle.len() as u64);
            bytes.extend_from_slice(middle);
            bytes.extend(varints(&[id]));
            bytes
        };
        // A table of `entries`.
        let table = |entries: &[Vec<u8>]| {
            [varints(&[version, entries.len() as u64]), entries.concat()].concat()
        };
        let paths = |entries: &[Vec<u8>]| {
            let docs = read_docs(&forge_docs(&table(entries))[..]).unwrap();
            (
                docs.iter().map(|(_, path)| path.to_owned()).collect::<Vec<_>>(),
                docs.path_ranks().to_vec(),
            )
        };
        // `ab` (id 1), then `a` + `c` (id 0); `x.txt` (id 1), then `y` +
        // `.txt` (id 0), and all of `y.txt` again (id 2).
        let honest = [entry(0, 0, b"ab", 1), entry(1, 0, b"c", 0)];
        assert_eq!(paths(&honest), (vec!["ac".to_owned(), "ab".to_owned()], vec![1, 0]));
        let honest = [entry(0, 0, b"x.txt", 1), entry(0, 4, b"y", 0), entry(5, 0, b"", 2)];
        assert_eq!(paths(&honest).0, ["y.txt", "x.txt", "y.txt"]);
        // More shared bytes than the path before has (the first has none):
        // at the front, at the back, and at both ends together, overlapping.
        for hostile in [
            vec![entry(1, 0, b"", 0)],
            vec![entry(0, 1, b"", 0)],
            vec![entry(0, 0, b"a", 0), entry(2, 0, b"", 1)],
            vec![entry(0, 0, b"a", 0), entry(0, 2, b"b", 1)],
            vec![entry(0, 0, b"ab", 0), entry(1, 2, b"", 1)],
            vec![entry(0, 0, b"ab", 0), entry(2, 1, b"c", 1)],
        ] {
            assert_docs_rejected(&table(&hostile));
        }
        // A head whose escape has no varint behind it, or a cut one; bytes
        // after the last entry.
        assert_docs_rejected(&varints(&[version, 1, 0, 0x0f]));
        assert_docs_rejected(&[varints(&[version, 1, 0, 0xf0]), vec![0x80]].concat());
        assert_docs_rejected(&[table(&[entry(0, 0, b"a", 0)]), vec![0]].concat());
        // Each part valid on its own terms, the rebuilt path not UTF-8: the
        // first byte of `é`, then `a`; the `a`, then the last byte of `é`.
        let e = "é".as_bytes();
        assert_docs_rejected(&table(&[entry(0, 0, e, 1), entry(1, 0, b"a", 0)]));
        assert_docs_rejected(&table(&[entry(0, 0, e, 1), entry(0, 1, b"a", 0)]));
        // A rebuilt path over the limit, from parts under it: the path
        // before and one byte more, at the front and at the back.
        let limit = vec![b'a'; MAX_STRING_LEN as usize];
        for second in [entry(MAX_STRING_LEN, 0, b"a", 1), entry(0, MAX_STRING_LEN, b"a", 1)] {
            assert_docs_rejected(&table(&[entry(0, 0, &limit, 0), second]));
        }
    }

    #[test]
    fn doc_table_entries_give_each_id_one_ascending_path() {
        let version = u64::from(SEGMENT_VERSION);
        // Documents `a`, `b`, `c` in path order under `ids`.
        let table = |paths: [u8; 3], ids: [u64; 3]| {
            let mut all = vec![version, 3];
            for (path, id) in paths.into_iter().zip(ids) {
                all.extend([0, 0x10, path.into(), id]);
            }
            varints(&all)
        };
        let docs = read_docs(&forge_docs(&table(*b"abc", [2, 0, 1]))[..]).unwrap();
        assert_eq!(docs.iter().map(|(_, path)| path).collect::<Vec<_>>(), ["b", "c", "a"]);
        assert_eq!(docs.path_ranks(), [1, 2, 0]);
        let error = |payload: &[u8]| read_docs(&forge_docs(payload)[..]).unwrap_err().to_string();
        for (ids, why) in [
            ([2, 0, 2], "document id listed twice"),
            ([0, 3, 1], "document id past the end of the table"),
            ([0, 1, u64::MAX], "document id past the end of the table"),
        ] {
            assert!(error(&table(*b"abc", ids)).contains(why), "{ids:?}");
        }
        // A path equal to the one before under a lower id, and a path below
        // the one before.
        for (paths, ids) in [(*b"abb", [0, 2, 1]), (*b"acb", [0, 1, 2])] {
            let refused = error(&table(paths, ids));
            assert!(refused.contains("do not strictly ascend by path, then id"), "{refused}");
        }
        // A path listed twice, as `DocTable::insert` allows, under ascending
        // ids; and such a table written and read back.
        let docs = read_docs(&forge_docs(&table(*b"abb", [0, 1, 2]))[..]).unwrap();
        assert_eq!(docs.iter().map(|(_, path)| path).collect::<Vec<_>>(), ["a", "b", "b"]);
        let mut twice = DocTable::new();
        for path in ["b.txt", "a.txt", "b.txt"] {
            twice.insert(path);
        }
        let loaded = read_docs(&doc_file(&twice)[..]).unwrap();
        assert_eq!(loaded, twice);
        assert_eq!(loaded.path_ranks(), [1, 0, 2]);
    }

    #[test]
    fn document_lengths_are_id_gaps_under_the_hostile_input_rules() {
        let version = u64::from(SEGMENT_VERSION);
        // Three documents; `count` lengths stored as `values`; no terms.
        let front = |count: u64, values: &[u64]| {
            let mut all = vec![version, 3, count];
            all.extend_from_slice(values);
            all.push(0);
            varints(&all)
        };
        let lens = |payload: &[u8]| -> Vec<(FileId, u32)> {
            let bytes = forge(payload);
            let at = check_header(&bytes, SEGMENT_MAGIC, "segment").unwrap();
            read_front_matter(&bytes, at).unwrap().doc_lens
        };
        // Some documents' lengths: (gap, length) pairs.
        assert_eq!(lens(&front(2, &[0, 5, 2, 7])), [(FileId(0), 5), (FileId(2), 7)]);
        assert_eq!(lens(&front(2, &[1, 5, 1, 7])), [(FileId(1), 5), (FileId(2), 7)]);
        // Every document's: the lengths alone, in id order, as zigzag steps
        // from the one before (+5, −5, +7).
        let every = [(FileId(0), 5), (FileId(1), 0), (FileId(2), 7)];
        assert_eq!(lens(&front(3, &[10, 9, 14])), every);
        let top = u64::from(u32::MAX);
        assert_eq!(lens(&front(3, &[2 * top, 2 * top - 1, 0]))[2], (FileId(2), 0));
        // A step below 0 or past `u32`, and one past `i64` either way.
        assert_both_readers_reject(&front(3, &[10, 11, 0]));
        assert_both_readers_reject(&front(3, &[2 * top, 2, 0]));
        assert_both_readers_reject(&front(3, &[2 * top + 2, 0, 0]));
        assert_both_readers_reject(&front(3, &[u64::MAX, 0, 0]));
        assert_both_readers_reject(&front(3, &[u64::MAX - 1, 0, 0]));
        // A repeated id, and an id past the doc table.
        assert_both_readers_reject(&front(2, &[1, 5, 0, 7]));
        assert_both_readers_reject(&front(2, &[1, 5, 2, 7]));
        assert_both_readers_reject(&front(1, &[3, 5]));
        assert_both_readers_reject(&front(2, &[1, 5, u64::from(u32::MAX), 7]));
        // A dense table with more lengths than documents, and one cut short.
        assert_both_readers_reject(&front(4, &[5, 6, 7, 8]));
        assert_both_readers_reject(&front(3, &[5, 6]));
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
        let info = write_segment(&index, docs.len(), std::io::Cursor::new(&mut buf)).unwrap();
        assert!(info.posting_count > buf.len() as u64 / 10);
        let (shard, _) = read_segment_sealed(&buf[..]).unwrap();
        assert_eq!(shard, SealedShard::from_index(&index));
        assert_eq!(read_segment(&buf[..]).unwrap().0, index);
    }

    #[test]
    fn streaming_writer_appends_at_the_writers_position_and_ends_after_the_segment() {
        let (index, docs) = sample();
        let mut alone = Vec::new();
        write_segment(&index, docs.len(), std::io::Cursor::new(&mut alone)).unwrap();

        let mut cursor = std::io::Cursor::new(b"prefix".to_vec());
        cursor.set_position(6);
        let info = write_segment(&index, docs.len(), &mut cursor).unwrap();
        assert_eq!(cursor.position(), 6 + info.bytes);
        let written = cursor.into_inner();
        assert_eq!(&written[..6], b"prefix");
        assert_eq!(&written[6..], &alone[..]);
    }

    /// `index` over `docs` written and read back: the shard it loads as is
    /// the shard it seals to, every term is found with its ids and tfs, and
    /// every one- and two-byte prefix range holds the lists a scan finds.
    /// Returns the shard.
    fn assert_round_trips(index: &InMemoryIndex, docs: &DocTable) -> SealedShard {
        let mut buf = Vec::new();
        write_segment(index, docs.len(), std::io::Cursor::new(&mut buf)).unwrap();
        let (shard, _) = read_segment_sealed(&buf[..]).unwrap();
        assert!(shard == SealedShard::from_index(index));
        assert_eq!(read_segment(&buf[..]).unwrap().0, *index);
        let terms: Vec<String> = shard.iter().map(|(term, _)| term).collect();
        for (term, list) in index.iter() {
            let found = shard.postings(term).unwrap();
            let (mut ids, mut tfs) = (Vec::new(), Vec::new());
            found.decode_into(&mut ids);
            assert_eq!(ids, list.doc_ids(), "{term}");
            found.decode_freqs_into(&mut tfs);
            tfs.resize(ids.len(), 1);
            assert!(tfs.iter().copied().eq(list.iter_counted().map(|(_, tf)| tf)), "{term}");
            let mut cursor = found.cursor();
            for (id, tf) in list.iter_counted() {
                assert_eq!((cursor.current(), cursor.current_tf()), (Some(id), tf), "{term}");
                cursor.advance();
            }
        }
        let prefixes = terms.iter().flat_map(|term| {
            [&term[..0], term.get(..1).unwrap_or(""), term.get(..2).unwrap_or("")]
        });
        for prefix in prefixes {
            let scanned = terms.iter().filter(|term| term.starts_with(prefix)).count();
            assert_eq!(shard.prefix_postings(prefix).len(), scanned, "{prefix:?}");
        }
        shard
    }

    #[test]
    fn v13_round_trips_at_the_edges() {
        // Lists of 1, 2 and 5 postings (one block each), 6, 127 and 128
        // (short: one stream each) and 129, 256 and 257 (in blocks), from id
        // 0 on; one list at both ends of the universe (ids 0 and 299) and one
        // at its last id alone.  Every tf 1; then the short lists' tfs all
        // 1, one above 1 and all above 1, and one tf above 1 at the last
        // posting of a full block.
        let lengths = [1u32, 2, 5, 6, 127, 128, 129, 256, 257];
        let mut docs = DocTable::new();
        let ids: Vec<FileId> = (0..300).map(|i| docs.insert(format!("d/{i:03}.txt"))).collect();
        let mut index = InMemoryIndex::new();
        let mut counted = InMemoryIndex::new();
        for (i, &id) in ids.iter().enumerate() {
            let mut terms: Vec<String> =
                lengths.iter().filter(|&&n| n as usize > i).map(|n| format!("n{n}")).collect();
            match i {
                0 => terms.push("ends".into()),
                299 => terms.extend(["ends".into(), "last".into()]),
                _ => {}
            }
            index.insert_file(id, terms.iter().map(|term| Term::from(term.as_str())));
            let tf = |term: &str| match term {
                "n6" if i == 2 => 3,
                "n127" if i == 126 => 3,
                "n128" => 2 + i as u32 % 5,
                "ends" => 1 + i as u32,
                "n257" if i == 127 => 9,
                _ => 1,
            };
            counted.insert_file_counted(
                id,
                terms.iter().map(|term| (Term::from(term.as_str()), tf(term))),
            );
        }
        for index in [&index, &counted] {
            let shard = assert_round_trips(index, &docs);
            for (term, list) in shard.iter() {
                let short = (SHORT_LIST_MIN..=BLOCK_SIZE).contains(&list.len());
                let one_block = list.len() <= BLOCK_SIZE;
                assert_eq!(
                    (list.is_short(), list.skips().is_empty()),
                    (short, one_block),
                    "{term}"
                );
                assert_eq!(list.universe(), 300, "{term}");
            }
        }
        // A short list holding every document of its universe takes no
        // bits: its stream is empty.
        let mut docs = DocTable::new();
        let mut every = InMemoryIndex::new();
        for i in 0..100 {
            every.insert_file(docs.insert(format!("e{i:02}")), [Term::from("every")]);
        }
        let shard = assert_round_trips(&every, &docs);
        assert!(shard.postings(&Term::from("every")).unwrap().data().is_empty());

        // Dictionaries of 16 and 17 terms (the 17th is a restart slot): terms
        // sharing nothing with the term before, all but one byte, and
        // multi-byte characters — a two-byte one cut by the bytes two terms
        // share, on either side of the restart.
        let words = [
            "a", "aé", "aê", "b", "bbbbbbbx", "bbbbbbby", "bbbbbbbz", "c", "dé", "dê", "x", "xü1",
            "xü2", "xü3", "yé", "yê", "zz",
        ];
        for count in [16, 17] {
            let mut docs = DocTable::new();
            let mut index = InMemoryIndex::new();
            for (i, word) in words[..count].iter().enumerate() {
                index.insert_file(docs.insert(format!("w{i}")), [Term::from(*word)]);
            }
            assert_round_trips(&index, &docs);
        }
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
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Hostile v13 term sections behind a matching checksum — one byte
        /// changed, a term's head escaped or rewritten, the section cut
        /// short or extended, a short list's length past the entry, its
        /// posting count above the universe or its stream cut short — load
        /// as a shard or as `Corrupt`, never a panic (the first two always
        /// `Corrupt`, the third always a shard); a shard that loads reads
        /// its short lists ascending below its universe, and answers every
        /// exact lookup, every one- and two-letter prefix range and a full
        /// cursor walk of every list without a panic.
        #[test]
        fn hostile_term_sections_load_or_fail_cleanly(
            files in proptest::collection::vec(
                proptest::collection::vec(("[a-d]{1,3}", 1u32..5), 1..6),
                1..200,
            ),
            at in any::<usize>(),
            value in any::<u8>(),
            how in 0u8..7,
            extra in proptest::collection::vec(any::<u8>(), 1..8),
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
            write_segment(&index, docs.len(), std::io::Cursor::new(&mut buf)).unwrap();
            let at = check_header(&buf, SEGMENT_MAGIC, "segment").unwrap();
            let terms_at = read_front_matter(&buf, at).unwrap().terms_at;
            let header = HEADER_LEN as usize;
            // Where each term's head stands in the payload: behind the term
            // count and the universe, each entry as long as it encodes.
            let mut reader = Reader::new(&buf, terms_at);
            reader.u64().unwrap();
            let universe = reader.u64().unwrap();
            let (mut entry_at, mut heads) = (reader.pos() - header, Vec::new());
            let (mut previous, mut entry) = (String::new(), Vec::new());
            for (slot, (term, list)) in read_segment_sealed(&buf[..]).unwrap().0.iter().enumerate() {
                heads.push(entry_at);
                entry_at += dsearch_index::encode_term(&mut entry, slot, &previous, &term, list)
                    .total() as usize;
                previous = term;
            }
            let mut payload = buf[header..].to_vec();
            // Terms of one to three letters: fewer than three shared, one to
            // three stored.
            let short = |head: u8| head & 0x0f < 3 && (1..=3).contains(&(head >> 4));
            prop_assert!(heads.iter().all(|&head| short(payload[head])));
            let section = terms_at - header..payload.len();
            let at = section.start + at % section.len();
            // A term's posting count, flag and all, stands behind its head
            // and rest; then its bound byte, and for a short list its
            // stream's length and its stream (a word is in far fewer than
            // 129 files here: no list is longer).
            let counted_at = |head: usize| {
                let count_at = head + 1 + usize::from(payload[head] >> 4);
                let mut reader = Reader::new(&payload, count_at);
                (count_at, reader.u64().unwrap(), reader.pos() + 1)
            };
            let shorts: Vec<usize> = heads
                .iter()
                .copied()
                .filter(|&head| counted_at(head).1 >> 1 >= SHORT_LIST_MIN as u64)
                .collect();
            // The damage to a short list falls back to a changed byte where
            // there is none.
            let how = if shorts.is_empty() && how >= 4 { 0 } else { how };
            let head = if how >= 4 { shorts[at % shorts.len()] } else { heads[at % heads.len()] };
            let (count_at, counted, length_at) = counted_at(head);
            let mut reader = Reader::new(&payload, length_at);
            let length = reader.u64().unwrap();
            let stream_at = reader.pos();
            prop_assert!(counted >> 1 <= BLOCK_SIZE as u64);
            let respell = |payload: &mut Vec<u8>, at: usize, old_end: usize, value: u64| {
                drop(payload.splice(at..old_end, varints(&[value])));
            };
            match how {
                0 => payload[at] = value,
                1 => payload.truncate(at),
                2 => payload.extend_from_slice(&extra),
                // An escape nibble before what follows, or any head.
                3 => {
                    payload[head] = match value % 3 {
                        0 => payload[head] | 0x0f,
                        1 => payload[head] | 0xf0,
                        _ => value,
                    };
                }
                // A length past the entry: past the payload, whatever
                // follows.
                4 => {
                    let past = length + payload.len() as u64 + u64::from(value);
                    respell(&mut payload, length_at, stream_at, past);
                }
                // A count above the universe (a short one, where the universe
                // is below 128).
                5 => {
                    let above = (universe + 1) << 1 | (counted & 1);
                    respell(&mut payload, count_at, length_at - 1, above);
                }
                // A stream cut short: its last byte gone, its length one less.
                _ => {
                    if length > 0 {
                        payload.remove(stream_at + length as usize - 1);
                        respell(&mut payload, length_at, stream_at, length - 1);
                    }
                }
            }
            let shard = match read_segment_sealed(&forge(&payload)[..]) {
                Ok((shard, _)) => shard,
                Err(PersistError::Corrupt(_)) => {
                    prop_assert!(how != 6, "a stream cut short is refused");
                    return;
                }
                Err(other) => panic!("not `Corrupt`: {other}"),
            };
            prop_assert!(how != 4 && how != 5, "a length past the entry or a count above the universe loads");
            // Whatever their bits, short lists read ascending below the
            // universe the shard loaded with.
            for (_, list) in shard.iter().filter(|(_, list)| list.is_short()) {
                let mut ids = Vec::new();
                list.decode_into(&mut ids);
                prop_assert!(ids.windows(2).all(|pair| pair[0] < pair[1]));
                prop_assert!(ids.iter().all(|id| u64::from(id.as_u32()) < list.universe()));
            }
            let walk = |list: dsearch_index::CompressedView<'_>| {
                let mut cursor = list.cursor();
                while cursor.current().is_some() {
                    let _ = cursor.current_tf();
                    cursor.advance();
                }
            };
            // Every word of one to three letters, and so every prefix of one
            // or two.
            let mut words = vec![String::new()];
            for _ in 0..3 {
                let longer: Vec<String> = words
                    .iter()
                    .filter(|word| word.len() == words.last().map_or(0, String::len))
                    .flat_map(|word| ["a", "b", "c", "d"].map(|letter| format!("{word}{letter}")))
                    .collect();
                words.extend(longer);
            }
            for word in &words[1..] {
                if let Some(list) = shard.postings(&Term::from(word.as_str())) {
                    walk(list);
                }
                if word.len() <= 2 {
                    shard.prefix_postings(word).for_each(walk);
                }
            }
            for (_, list) in shard.iter() {
                walk(list);
            }
        }
    }

    /// An index of `paths`, numbered in the order given, each file holding
    /// one term of its own and one shared by every third.
    fn numbered(paths: &[String]) -> (InMemoryIndex, DocTable) {
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for (i, path) in paths.iter().enumerate() {
            let id = docs.insert(path);
            let shared = Term::from(format!("s{}", i % 3).as_str());
            index.insert_file(id, [Term::from(format!("t{i}").as_str()), shared]);
        }
        (index, docs)
    }

    /// The paths of `keyed`, in the order of their keys.
    fn numbering(keyed: std::collections::BTreeMap<String, u64>) -> Vec<String> {
        let mut paths: Vec<(String, u64)> = keyed.into_iter().collect();
        paths.sort_by_key(|&(_, key)| key);
        paths.into_iter().map(|(path, _)| path).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// A doc table numbered in any order comes back as it was written,
        /// with the path ranks a sort of its paths gives — read off the
        /// table's path order, not sorted again.
        #[test]
        fn loaded_path_ranks_are_a_sort_of_the_paths(
            paths in proptest::collection::btree_map("[a-c/]{0,6}", any::<u64>(), 0..40),
        ) {
            let paths = numbering(paths);
            let (_, docs) = numbered(&paths);
            let loaded = read_docs(&doc_file(&docs)[..]).unwrap();
            prop_assert_eq!(&loaded, &docs);
            let sorted: DocTable = paths.iter().cloned().collect();
            prop_assert_eq!(loaded.path_ranks(), sorted.path_ranks());
        }

        /// Hostile doc files — one byte changed, the file cut short, bytes
        /// inserted into it or appended to it — are an error under the
        /// checksum they were written with.  Behind a matching one they load
        /// or fail as `Corrupt` (bytes appended always fail), never a panic
        /// or an allocation sized by an unchecked count; and a table that
        /// loads gives every id a path, in ranks a sort of its paths gives.
        #[test]
        fn hostile_doc_tables_load_or_fail_cleanly(
            paths in proptest::collection::btree_map(
                "[a-c]{1,3}(/[a-c]{1,3}){0,2}",
                any::<u64>(),
                1..60,
            ),
            at in any::<usize>(),
            value in any::<u8>(),
            how in 0u8..4,
            extra in proptest::collection::vec(any::<u8>(), 1..8),
        ) {
            let (_, docs) = numbered(&numbering(paths));
            let buf = doc_file(&docs);
            let header = HEADER_LEN as usize;
            let mut damaged = buf.clone();
            let at = header + at % (buf.len() - header);
            match how {
                0 => damaged[at] = if damaged[at] == value { !value } else { value },
                1 => damaged.truncate(at),
                2 => drop(damaged.splice(at..at, extra)),
                _ => damaged.extend_from_slice(&extra),
            }
            prop_assert!(read_docs(&damaged[..]).is_err());
            let forged = forge_docs(&damaged[header..]);
            let loaded = match read_docs(&forged[..]) {
                Ok(loaded) => loaded,
                Err(PersistError::Corrupt(_)) => return,
                Err(other) => panic!("not `Corrupt`: {other}"),
            };
            prop_assert!(how < 3, "bytes appended to a doc file loaded");
            let sorted: DocTable = loaded.iter().map(|(_, path)| path.to_owned()).collect();
            prop_assert_eq!(loaded.path_ranks(), sorted.path_ranks());
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
            let info = write_segment(&index, docs.len(), std::io::Cursor::new(&mut buf)).unwrap();
            prop_assert_eq!(info.doc_count, docs.len() as u64);
            let (restored, doc_count) = read_segment(&buf[..]).unwrap();
            prop_assert_eq!(&restored, &index);
            prop_assert_eq!(doc_count, docs.len() as u64);
            prop_assert_eq!(&read_docs(&doc_file(&docs)[..]).unwrap(), &docs);
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
            write_segment(&index, docs.len(), std::io::Cursor::new(&mut buf)).unwrap();
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
