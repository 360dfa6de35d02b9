//! Sealed, immutable shards: the serving-side form of an index.
//!
//! An [`InMemoryIndex`] is the *build* structure — a hash map of mutable
//! posting vectors.  A [`SealedShard`] is what a serving snapshot actually
//! reads: **one byte buffer** holding every term's encoded entry exactly as a
//! segment stores it ([`encode_term`]), described by flat side tables — one
//! fixed-size `TermEntry` per term (where its entry and its id and tf blocks
//! — or its short list's stream — sit in the buffer, where its skip entries
//! sit in the skip table), one shard-wide skip table, one shard-wide
//! frequency-offset table, a `u32` open-addressing table for exact-term
//! lookups and a byte per term of the front coding's shared counts.  The
//! entries store nothing the tables can derive: the terms are front-coded,
//! the blocks lie back to back, each saying its own length, and a list of
//! [`SHORT_LIST_MIN`](crate::SHORT_LIST_MIN) to [`BLOCK_SIZE`] postings is
//! one stream behind its byte length, coded
//! over the shard's id universe (the bound its ids lie below, which the
//! term section states before its first entry): the ids by binary
//! interpolative coding, the tfs above 1 as sparse exceptions
//! ([`crate::interpolative`]).  A shard loaded from disk *is* the
//! segment file's bytes; a shard sealed in memory
//! ([`SealedShard::from_index`]) is the same encoding written into a fresh
//! buffer, so there is one representation and one reader.  That buys:
//!
//! * **memory** — the postings cost their on-disk bytes plus 17 bytes of
//!   table per term, with a constant number of heap allocations per shard;
//! * **prefix lookups** — `word*` resolves to a contiguous dictionary range
//!   (a binary search over the restart terms, then a walk of a few slots; no
//!   hash-table scan);
//! * **skip-aware evaluation** — every posting list is handed out as a
//!   `Copy` [`CompressedView`] whose [`BlockCursor`](crate::block::BlockCursor)
//!   hops the skip table, so skewed intersections never decode the blocks
//!   they skip.
//!
//! Every structural property the readers rely on is checked once, when the
//! tables are laid over the bytes — every block's among them, since finding
//! where the next one starts means reading its header; a short list is
//! skipped by its length, undecoded, for it decodes to ascending ids below
//! the universe whatever its bits, once its length fits the entry and its
//! posting count the universe: hostile bytes are a [`BlockFormatError`],
//! never a panic and never an allocation sized by a count they declare.
//!
//! Ranked evaluation prunes with one bound per list and nothing finer: the
//! byte a seal writes quantizes the largest saturation `tf / (tf + norm)`
//! of the list's postings, and [`bm25_bound`] turns it into a score bound
//! under whatever idf the query scores with.

use std::cmp::Ordering;
use std::sync::{Condvar, Mutex};

use dsearch_text::fnv::fnv1a_64;
use dsearch_text::Term;

use crate::block::{
    block_end, corrupt, is_short, BlockFormatError, CompressedPostings, CompressedView, SkipEntry,
    BLOCK_SIZE,
};
use crate::doc_table::FileId;
use crate::interpolative::MAX_UNIVERSE;
use crate::memory_index::InMemoryIndex;
use crate::posting::PostingList;
use crate::varint::{
    checked_u32, read_head_lenient, read_lenient, write_head, write_varint, Reader,
};

/// BM25 term-frequency saturation constant.
pub const BM25_K1: f32 = 1.2;
/// BM25 length-normalisation strength.
pub const BM25_B: f32 = 0.75;

/// Longest term (in bytes) a shard accepts from encoded bytes.
const MAX_TERM_LEN: u64 = 64 * 1024;

/// Fewest bytes one encoded term entry occupies: a head (the bytes its term
/// shares with the one before, the length of the rest), a posting count and
/// a bound byte.
const MIN_ENTRY_BYTES: usize = 3;

/// Every this many dictionary slots, one is a restart slot: it stores its
/// whole term, so that a lookup walks at most this many slots from one.
const RESTART_INTERVAL: usize = 16;

/// What [`bm25_bound_byte`] raises a saturation by before quantizing it:
/// more than the relative rounding error of an `f32` BM25 score (four
/// roundings, 2⁻²² at most).
const BOUND_MARGIN: f64 = 1.0 / (1u32 << 20) as f64;

/// The BM25 inverse document frequency of a term with `doc_freq` postings in
/// a shard of `total_docs` documents: `ln(1 + (N - df + 0.5)/(df + 0.5))`.
/// Computed in f64 and truncated once so seal-time bounds and query-time
/// scores agree bit for bit.
#[must_use]
pub fn bm25_idf(total_docs: u64, doc_freq: usize) -> f32 {
    let n = total_docs as f64;
    let df = doc_freq as f64;
    ((1.0 + (n - df + 0.5).max(0.0) / (df + 0.5)).ln()) as f32
}

/// One posting's BM25 contribution: `idf · tf(k1+1)/(tf + norm)` where
/// `norm = k1 · (1 - b + b · dl/avgdl)` is the document's precomputed
/// length norm.
#[must_use]
pub fn bm25_score(idf: f32, tf: u32, norm: f32) -> f32 {
    let tf = tf as f32;
    idf * (tf * (BM25_K1 + 1.0)) / (tf + norm)
}

/// A posting's saturation `tf / (tf + norm)`, over the `f32` values
/// [`bm25_score`] computes with: its score is `idf · (1 + k1)` times this,
/// up to rounding.
fn saturation(tf: u32, norm: f32) -> f64 {
    let tf = f64::from(tf as f32);
    tf / (tf + f64::from(norm))
}

/// The bound byte of a list whose postings' largest saturation is `peak`:
/// `⌈255 · peak⌉`, taken over `peak` raised by a margin that covers an `f32`
/// score's rounding; `1..=255` for any saturation, which is below 1.
fn bm25_bound_byte(peak: f64) -> u8 {
    (255.0 * peak * (1.0 + BOUND_MARGIN)).ceil().clamp(1.0, 255.0) as u8
}

/// The largest score a posting of a list with bound byte `bound` reaches
/// under `idf`: `idf · (1 + k1) · bound / 255`.  The byte holds no idf, so
/// the bound is admissible whatever idf the query scores with — for every
/// tf below 2¹⁸, exactly; above that (one word hundreds of thousands of
/// times in one document) the byte can stop at 255 with the score a few
/// units in its last place past the bound, which the evaluator's
/// comparison slack absorbs.
#[must_use]
pub fn bm25_bound(idf: f32, bound: u8) -> f64 {
    f64::from(idf) * f64::from(BM25_K1 + 1.0) * f64::from(bound) / 255.0
}

/// The neutral length norm (`dl == avgdl`), used for documents without a
/// recorded length — under it `tf = 1` scores exactly `idf`.
#[must_use]
pub fn bm25_neutral_norm() -> f32 {
    BM25_K1
}

/// Where one term's entry sits in the shard's buffer.  Only what cannot be
/// read off the entry in a few varints is kept: the positions that lie
/// behind a variable-length part.  Posting count and bound byte are re-read
/// where they stand ([`SealedShard::view`]), the term is rebuilt from its
/// restart slot on.
#[derive(Debug, Clone, Copy)]
struct TermEntry {
    /// Start of the entry: its front-coded term.
    entry_at: u32,
    /// The first id block (behind the skip entries); a short list's stream.
    ids_at: u32,
    /// The first tf block: where the id blocks end.  The tf blocks end where
    /// the next entry starts.  Where a short list's stream ends.
    tfs_at: u32,
    /// First index of a multi-block term in the skip and frequency-offset
    /// tables.
    blocks_at: u32,
}

/// The frequency offsets of a single-block list: its one block starts the
/// payload.
const FIRST_BLOCK: &[u32] = &[0];

/// What every re-read of an entry relies on.
const LAID_OVER: &str = "validated when the tables were laid over the bytes";

/// One immutable, compressed shard: encoded term entries in one buffer plus
/// the tables that index them.
#[derive(Debug, Clone, Default)]
pub struct SealedShard {
    /// The term count and the encoded term entries (for a loaded shard: the
    /// whole segment file, the entries behind its front matter).
    bytes: Vec<u8>,
    /// Sorted ascending by term text; the dictionary prefix lookups range
    /// over.
    terms: Vec<TermEntry>,
    /// Every multi-block term's skip entries, decoded from their varints.
    skips: Vec<SkipEntry>,
    /// The same terms' per-block frequency offsets, parallel to `skips`
    /// (zeros for a term that tracks no frequencies).
    freq_offsets: Vec<u32>,
    /// Exact-term fast path: open addressing over `terms` slots, keyed by
    /// FNV-1a of the term text.  A power-of-two table at most two-thirds
    /// full; `0` is empty, anything else a slot plus one.
    lookup: Vec<u32>,
    /// Per slot, the bytes its term shares with the term before (255: that
    /// many or more), so that checking a probed slot reads only the entries
    /// whose bytes its term still holds.
    shared: Vec<u8>,
    files: u64,
    /// Every id lies below this: what short lists are coded over.
    universe: u64,
    posting_count: u64,
    /// Sum of [`CompressedView::byte_size`] (shards are immutable, so
    /// `!stats` reporting need not re-sweep the vocabulary).
    posting_bytes: usize,
    /// The BM25 length norms; empty ⇒ unscored shard (every norm reads as
    /// neutral).
    norms: Norms,
}

impl PartialEq for SealedShard {
    fn eq(&self, other: &Self) -> bool {
        // Term by term: the tables index the buffers, so equal buffers are
        // neither necessary (tables) nor sufficient (lengths) on their own.
        self.files == other.files
            && self.posting_count == other.posting_count
            && self.norms == other.norms
            && self.iter().eq(other.iter())
    }
}

impl Eq for SealedShard {}

/// Encoded bytes by what they hold: the census `dsearch index` prints of the
/// segments it wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionBytes {
    /// Id blocks: first ids and gaps; and short lists' lengths and ids.
    pub ids: u64,
    /// Of `ids`, the blocks' exception sections (count bytes, position gaps
    /// and high parts); the rest is first ids, headers, bases and packed
    /// values.
    pub id_exceptions: u64,
    /// Of `ids`, the short lists' stream lengths and ids (up to the byte the
    /// ids end in).
    pub short_ids: u64,
    /// Frequency blocks (no offsets: each block says its own length); and
    /// the rest of the short lists' streams.
    pub tfs: u64,
    /// Of `tfs`, the blocks' exception sections.
    pub tf_exceptions: u64,
    /// Of `tfs`, the short lists' tfs (from the byte after their ids end).
    pub short_tfs: u64,
    /// Skip entries: each block's last id, as a delta (no offsets).
    pub skips: u64,
    /// List bounds: one byte a term.
    pub scores: u64,
    /// Front-coded term text and posting counts.
    pub dictionary: u64,
    /// What a segment holds before its first term entry — header, document
    /// table, document lengths, term count; [`encode_term`] leaves it zero.
    pub docs: u64,
}

impl SectionBytes {
    /// All sections together (the exception sections and the short lists
    /// counted once, in `ids` and `tfs`).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ids + self.tfs + self.skips + self.scores + self.dictionary + self.docs
    }
}

impl std::ops::AddAssign for SectionBytes {
    fn add_assign(&mut self, other: Self) {
        self.ids += other.ids;
        self.id_exceptions += other.id_exceptions;
        self.short_ids += other.short_ids;
        self.tfs += other.tfs;
        self.tf_exceptions += other.tf_exceptions;
        self.short_tfs += other.short_tfs;
        self.skips += other.skips;
        self.scores += other.scores;
        self.dictionary += other.dictionary;
        self.docs += other.docs;
    }
}

/// Appends the entry of dictionary slot `slot`, whose term follows
/// `previous` (the term of the slot before; unread at a restart slot), in
/// the segment encoding (version 13), and says how many bytes each part of
/// it took:
///
/// ```text
/// term, front-coded                     a head (`varint::write_head`): the
///                                       bytes shared with `previous` (0 at
///                                       every 16th slot, a restart slot,
///                                       which stores its whole term;
///                                       elsewhere all they share) and the
///                                       length of the rest, one byte when
///                                       both are below 15; then the rest
/// posting count                         varint, shifted left one bit: the
///                                       low bit says "tf blocks follow"
/// bound                                 one byte: `bm25_bound_byte` of the
///                                       postings' largest saturation, 0 when
///                                       the shard records no lengths
///
/// a short list (6 to 128 postings):
/// stream length                         varint, in bytes
/// stream                                the ids by binary interpolative
///                                       coding over the shard's universe;
///                                       when flagged, the positions of the
///                                       tfs above 1 the same way over the
///                                       list and each one's tf − 1 in
///                                       Elias-γ ([`crate::interpolative`])
///
/// any other list:
/// skip entries (only when > 1 block):   per block its last id less the block
///                                       before's (the first block: its last
///                                       id), as a varint
/// id blocks                             back to back; per block the first id
///                                       as a varint — for every block but
///                                       the first, less the last id of the
///                                       block before and one — then (when it
///                                       holds more ids) one codec block of
///                                       the gaps less one
/// tf blocks (only when flagged)         back to back; per block one codec
///                                       block of the frequencies less one
///                                       (none at all: every frequency is 1)
/// ```
///
/// A codec block is the patched frame of reference of [`crate::block`]: a
/// header byte (width, flags), an optional base, the packed low bits, the
/// exceptions (a count byte, then their positions as gaps and their high
/// bits, each bit-packed).  Its header says how long it is, so no length or
/// offset is stored: the tables find every block's offset, and check its
/// structure, when they are laid over the entry.  A block's first id is
/// stored once, in its id block, and checked against the skip entries there
/// too.  A short list's stream is skipped by its length, undecoded.
///
/// The segment writer streams these; [`SealedShard::from_index`] collects
/// them, and [`SealedShard::from_bytes_beside`] lays its tables over them.
pub fn encode_term(
    out: &mut Vec<u8>,
    slot: usize,
    previous: &str,
    term: &str,
    postings: CompressedView<'_>,
) -> SectionBytes {
    let mut mark = out.len();
    let mut section = |end: usize| {
        let bytes = (end - mark) as u64;
        mark = end;
        bytes
    };
    let (previous, term) = (previous.as_bytes(), term.as_bytes());
    let shared = if slot.is_multiple_of(RESTART_INTERVAL) {
        0
    } else {
        previous.iter().zip(term).take_while(|(a, b)| a == b).count()
    };
    write_head(out, shared as u64, (term.len() - shared) as u64);
    out.extend_from_slice(&term[shared..]);
    let freqs = postings.freqs();
    write_varint(out, (postings.len() as u64) << 1 | u64::from(!freqs.is_empty()));
    let dictionary = section(out.len());
    out.push(postings.bound());
    let scores = section(out.len());
    if let Some((_, tfs)) = postings.short_split() {
        write_varint(out, postings.data().len() as u64);
        out.extend_from_slice(postings.data());
        let ids = section(out.len()) - tfs as u64;
        return SectionBytes {
            ids,
            short_ids: ids,
            tfs: tfs as u64,
            short_tfs: tfs as u64,
            scores,
            dictionary,
            ..SectionBytes::default()
        };
    }
    let mut last = 0;
    for skip in postings.skips() {
        write_varint(out, u64::from(skip.last.as_u32() - last));
        last = skip.last.as_u32();
    }
    let skips = section(out.len());
    out.extend_from_slice(postings.data());
    let ids = section(out.len());
    out.extend_from_slice(freqs);
    let tfs = section(out.len());
    let (id_exceptions, tf_exceptions) = postings.exception_bytes();
    SectionBytes {
        ids,
        id_exceptions: id_exceptions as u64,
        tfs,
        tf_exceptions: tf_exceptions as u64,
        skips,
        scores,
        dictionary,
        ..SectionBytes::default()
    }
}

impl SealedShard {
    /// Seals an index: sorts its vocabulary, compresses every posting list
    /// and encodes the entries into one buffer — the representation a
    /// persisted segment of the same index loads as.
    #[must_use]
    pub fn from_index(index: &InMemoryIndex) -> Self {
        let sealing = SealedTerms::new(std::slice::from_ref(index));
        let mut bytes = Vec::new();
        write_varint(&mut bytes, sealing.term_count() as u64);
        write_varint(&mut bytes, sealing.universe());
        let Ok(()) = sealing.encode(|chunk| {
            bytes.extend_from_slice(&chunk.bytes);
            Ok::<(), std::convert::Infallible>(())
        });
        bytes.shrink_to_fit();
        SealedShard::lay_over(bytes, 0, sealing.files, sealing.norms)
            .expect("freshly encoded terms are well-formed")
    }

    /// Lays a shard over encoded bytes — the load path of a persisted
    /// segment, which hands over the file's bytes whole — while `beside`
    /// reads the same bytes (a segment load verifies the file's checksum
    /// there): on a scoped helper thread when `helper` is set, on this one
    /// after the tables otherwise; no shard exists before `beside` has
    /// returned.  `bytes[terms_at..]` must be exactly a term count, the id
    /// universe (every id lies below it) and that many entries as
    /// [`encode_term`] writes them, sorted strictly ascending by term.  The
    /// buffer is kept as it came, front matter and all — a loaded shard's
    /// buffer *is* its segment file.  `doc_lens` holds each document's
    /// recorded length, from which the BM25 norms are rebuilt exactly as
    /// [`SealedShard::from_index`] computes them; `doc_count` is the size of
    /// the document table the segment is over, the shard's document count
    /// when no lengths were recorded, and the universe may not pass it.
    ///
    /// # Errors
    ///
    /// The shard fails when the bytes cannot describe a well-formed shard
    /// over a table of `doc_count` documents.
    pub fn from_bytes_beside<T: Send>(
        bytes: Vec<u8>,
        terms_at: usize,
        doc_count: u64,
        doc_lens: &[(FileId, u32)],
        helper: bool,
        beside: impl FnOnce(&[u8]) -> T + Send,
    ) -> (Result<Self, BlockFormatError>, T) {
        let (tables, beside) = if helper {
            std::thread::scope(|scope| {
                let helper = scope.spawn(|| beside(&bytes));
                let tables = Tables::lay_over(&bytes, terms_at);
                (tables, helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            })
        } else {
            (Tables::lay_over(&bytes, terms_at), beside(&bytes))
        };
        let files = scored_population(doc_lens.len(), doc_count);
        let tables = tables.and_then(|tables| {
            if tables.universe > doc_count {
                let universe = tables.universe;
                return Err(corrupt(format!(
                    "ids up to {universe} past a doc table of {doc_count}"
                )));
            }
            Ok(tables)
        });
        let shard = tables.map(|tables| tables.into_shard(bytes, files, build_norms(doc_lens)));
        (shard, beside)
    }

    /// Builds the term tables over `bytes[terms_at..]` and keeps the bytes
    /// as the shard's buffer, scored with `norms` (empty: unscored).
    fn lay_over(
        bytes: Vec<u8>,
        terms_at: usize,
        files: u64,
        norms: Norms,
    ) -> Result<Self, BlockFormatError> {
        Ok(Tables::lay_over(&bytes, terms_at)?.into_shard(bytes, files, norms))
    }

    /// The front-coded term of dictionary slot `slot`: how many bytes it
    /// shares with the term before, and the rest.
    fn front_coded(&self, slot: usize) -> (usize, &[u8]) {
        let mut pos = self.terms[slot].entry_at as usize;
        let (shared, len) = read_head_lenient(&self.bytes, &mut pos);
        (shared, &self.bytes[pos..][..len])
    }

    /// How the terms from restart slot `from` on compare with `wanted`.
    fn walk<'s, 'w>(&'s self, from: usize, wanted: &'w [u8]) -> Walk<'s, 'w> {
        debug_assert_eq!(from % RESTART_INTERVAL, 0, "walks start at a restart slot");
        Walk { shard: self, wanted, slot: from, order: Ordering::Less, matched: 0 }
    }

    /// Whether dictionary slot `slot` holds `wanted`: the bytes the slot
    /// stores itself decide most probes.  The bytes it shares are checked
    /// back towards its restart slot (which shares none), against only the
    /// entries that wrote them: a slot before that shares fewer bytes than
    /// are still unchecked wrote the ones past its own shared count.
    fn holds(&self, slot: usize, wanted: &[u8]) -> bool {
        let (shared, rest) = self.front_coded(slot);
        if shared + rest.len() != wanted.len() || wanted[shared..] != *rest {
            return false;
        }
        let mut unchecked = shared;
        let mut before = slot;
        while unchecked > 0 {
            before -= 1;
            let shares = match self.shared[before] {
                u8::MAX => self.front_coded(before).0,
                shares => usize::from(shares),
            };
            if shares < unchecked {
                let wrote = &self.front_coded(before).1;
                if wrote.get(..unchecked - shares) != Some(&wanted[shares..unchecked]) {
                    return false;
                }
                unchecked = shares;
            }
        }
        true
    }

    /// The first slot a walk over `wanted` finds `past`, where `before`
    /// holds for the restart terms in front of that slot's group and for no
    /// others: a binary search over the restart terms, then a walk of at
    /// most one group.
    fn first_slot(
        &self,
        wanted: &[u8],
        before: impl Fn(&[u8]) -> bool,
        past: impl FnMut((Ordering, usize)) -> bool,
    ) -> usize {
        let (mut low, mut high) = (0, self.terms.len().div_ceil(RESTART_INTERVAL));
        while low < high {
            let group = low + (high - low) / 2;
            if before(self.front_coded(group * RESTART_INTERVAL).1) {
                low = group + 1;
            } else {
                high = group;
            }
        }
        let Some(group) = low.checked_sub(1) else { return 0 };
        let from = group * RESTART_INTERVAL;
        let mut walk = self.walk(from, wanted).take(RESTART_INTERVAL);
        match walk.position(past) {
            Some(at) => from + at,
            None => (from + RESTART_INTERVAL).min(self.terms.len()),
        }
    }

    /// The borrowed posting list of dictionary slot `slot`.
    fn view(&self, slot: usize) -> CompressedView<'_> {
        let entry = &self.terms[slot];
        let end = self.terms.get(slot + 1).map_or(self.bytes.len(), |next| next.entry_at as usize);
        let mut pos = entry.entry_at as usize;
        let (_, rest) = read_head_lenient(&self.bytes, &mut pos);
        pos += rest;
        let counted = read_lenient(&self.bytes, &mut pos) as usize;
        let len = counted >> 1;
        let bound = self.bytes[pos];
        let data = &self.bytes[entry.ids_at as usize..entry.tfs_at as usize];
        let freqs = &self.bytes[entry.tfs_at as usize..end];
        let block_count = len.div_ceil(BLOCK_SIZE);
        let (skips, freqs, freq_offsets) = if is_short(len) {
            (&[][..], if counted & 1 == 1 { data } else { &[][..] }, &[][..])
        } else if block_count > 1 {
            let blocks = entry.blocks_at as usize..entry.blocks_at as usize + block_count;
            let freq_offsets =
                if freqs.is_empty() { &[][..] } else { &self.freq_offsets[blocks.clone()] };
            (&self.skips[blocks], freqs, freq_offsets)
        } else {
            (&[][..], freqs, if freqs.is_empty() { &[][..] } else { FIRST_BLOCK })
        };
        CompressedView { len, skips, data, freqs, freq_offsets, bound, universe: self.universe }
    }

    /// Number of distinct terms.
    #[must_use]
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` when the shard holds no terms.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of `(term, file)` postings.
    #[must_use]
    pub fn posting_count(&self) -> u64 {
        self.posting_count
    }

    /// Number of documents this shard scores against: the documents with a
    /// recorded length — the population the average length is taken over —
    /// or, when no lengths were recorded, the files the source index counted.
    #[must_use]
    pub fn file_count(&self) -> u64 {
        self.files
    }

    /// The compressed postings of one exact term: one hash, then the probed
    /// slots' own bytes, and for the slot they match the few entries that
    /// wrote the bytes it shares with the term before.  Allocates nothing.
    #[must_use]
    pub fn postings(&self, term: &Term) -> Option<CompressedView<'_>> {
        let wanted = term.as_str().as_bytes();
        let mask = self.lookup.len().checked_sub(1)?;
        let mut probe = fnv1a_64(wanted) as usize & mask;
        loop {
            let slot = (self.lookup[probe] as usize).checked_sub(1)?;
            if self.holds(slot, wanted) {
                return Some(self.view(slot));
            }
            probe = (probe + 1) & mask;
        }
    }

    /// The compressed postings of every term starting with `prefix`, as one
    /// contiguous dictionary range: where it starts and where it ends, each
    /// one binary search over the restart terms and a walk of at most one
    /// group.  Allocates nothing.
    pub fn prefix_postings(
        &self,
        prefix: &str,
    ) -> impl ExactSizeIterator<Item = CompressedView<'_>> + '_ {
        let prefix = prefix.as_bytes();
        let start = self.first_slot(prefix, |head| head < prefix, |(order, _)| order.is_ge());
        let end = self.first_slot(
            prefix,
            |head| head < prefix || head.starts_with(prefix),
            |(order, matched)| order.is_gt() && matched < prefix.len(),
        );
        (start..end.max(start)).map(move |slot| self.view(slot))
    }

    /// Iterates `(term, compressed postings)` pairs in dictionary order, each
    /// term rebuilt from the one before.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (String, CompressedView<'_>)> + '_ {
        let mut term = Vec::new();
        (0..self.terms.len()).map(move |slot| {
            let (shared, rest) = self.front_coded(slot);
            term.truncate(shared);
            term.extend_from_slice(rest);
            (String::from_utf8(term.clone()).expect(LAID_OVER), self.view(slot))
        })
    }

    /// Bytes the compressed postings occupy (payload + skip tables).
    /// Computed once at seal time — shards are immutable.
    #[must_use]
    pub fn posting_bytes(&self) -> usize {
        self.posting_bytes
    }

    /// Bytes the same postings would occupy as raw `Vec<FileId>` storage
    /// (4 bytes per id), for compression-ratio reporting.
    #[must_use]
    pub fn uncompressed_posting_bytes(&self) -> usize {
        self.posting_count as usize * std::mem::size_of::<crate::doc_table::FileId>()
    }

    /// Heap bytes the shard holds: its buffer plus every side table, from
    /// their capacities (no allocator hooks).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.bytes.capacity()
            + self.terms.capacity() * size_of::<TermEntry>()
            + self.skips.capacity() * size_of::<SkipEntry>()
            + (self.freq_offsets.capacity() + self.lookup.capacity()) * size_of::<u32>()
            + self.shared.capacity()
            + self.norms.heap_bytes()
    }

    /// Whether the shard carries BM25 scoring state (document length norms
    /// and list bounds).  Unscored shards — sealed from indices
    /// without recorded lengths — still rank, degrading gracefully to
    /// pure-idf scores.
    #[must_use]
    pub fn has_scoring(&self) -> bool {
        !self.norms.is_empty()
    }

    /// The BM25 length norm of `file`; neutral for unknown documents and on
    /// unscored shards.
    #[must_use]
    pub fn doc_norm(&self, file: FileId) -> f32 {
        self.norms.at(file)
    }

    /// The shard-local BM25 inverse document frequency of a term appearing
    /// in `doc_freq` of this shard's documents.
    #[must_use]
    pub fn idf(&self, doc_freq: usize) -> f32 {
        bm25_idf(self.files, doc_freq)
    }
}

/// How the terms from a restart slot on compare with a wanted byte string,
/// slot by slot: each term's order against it and how many bytes they
/// share.  Both carry over from the term before, as the front coding does:
/// a term that shares fewer bytes with the term before than that one shared
/// with the wanted bytes is past them (terms ascend, and share all they
/// share); one that shares more compares as the term before did; only one
/// that shares exactly as many reads its own bytes.
struct Walk<'s, 'w> {
    shard: &'s SealedShard,
    wanted: &'w [u8],
    slot: usize,
    order: Ordering,
    matched: usize,
}

impl Iterator for Walk<'_, '_> {
    type Item = (Ordering, usize);

    fn next(&mut self) -> Option<(Ordering, usize)> {
        if self.slot >= self.shard.terms.len() {
            return None;
        }
        let (shared, rest) = self.shard.front_coded(self.slot);
        if self.slot.is_multiple_of(RESTART_INTERVAL) {
            self.matched = 0;
        }
        match shared.cmp(&self.matched) {
            Ordering::Less => (self.order, self.matched) = (Ordering::Greater, shared),
            Ordering::Greater => {}
            Ordering::Equal => {
                let wanted = &self.wanted[shared..];
                let common = rest.iter().zip(wanted).take_while(|(a, b)| a == b).count();
                self.order = rest[common..].cmp(&wanted[common..]);
                self.matched = shared + common;
            }
        }
        self.slot += 1;
        Some((self.order, self.matched))
    }
}

/// A shard's term tables, laid over its bytes: everything of a
/// [`SealedShard`] but the buffer and the scoring state.
struct Tables {
    universe: u64,
    terms: Vec<TermEntry>,
    skips: Vec<SkipEntry>,
    freq_offsets: Vec<u32>,
    lookup: Vec<u32>,
    shared: Vec<u8>,
    posting_count: u64,
    posting_bytes: usize,
}

impl Tables {
    /// Builds the tables over the term count and entries at
    /// `bytes[terms_at..]` in one pass, validating every structural property
    /// the readers rely on — every codec block's among them, since the walk
    /// finds each block's end in its header — and hashing each term while its
    /// bytes are at hand for the exact-term lookup, which is filled behind
    /// the walk.
    fn lay_over(bytes: &[u8], terms_at: usize) -> Result<Self, BlockFormatError> {
        if terms_at > bytes.len() {
            return Err(corrupt("terms start past the end"));
        }
        if u32::try_from(bytes.len()).is_err() {
            return Err(corrupt("shards over 4 GiB are not supported"));
        }
        let mut reader = Reader::new(bytes, terms_at);
        let term_count = reader.count(MIN_ENTRY_BYTES, "term")?;
        let universe = reader.u64()?;
        if universe > MAX_UNIVERSE {
            return Err(corrupt(format!("an id universe of {universe} passes u32")));
        }
        let mut terms: Vec<TermEntry> = Vec::with_capacity(term_count);
        let mut skips: Vec<SkipEntry> = Vec::new();
        let mut freq_offsets: Vec<u32> = Vec::new();
        let mut posting_count = 0u64;
        let mut posting_bytes = 0usize;
        let mut term: Vec<u8> = Vec::new();
        let mut hashes: Vec<u32> = Vec::with_capacity(term_count);
        let mut shared: Vec<u8> = Vec::with_capacity(term_count);
        for slot in 0..term_count {
            let entry_at = reader.pos() as u32;
            let shares = next_term(&mut reader, slot, &mut term)?;
            hashes.push(fnv1a_64(&term) as u32);
            shared.push(u8::try_from(shares).unwrap_or(u8::MAX));

            // The posting count, under its "tf blocks follow" bit, fits 32
            // bits: a list holds fewer than 2³¹ postings.
            let counted = reader.u32()?;
            let (len, has_tfs) = (counted as usize >> 1, counted & 1 == 1);
            reader.take(1, "list bound")?;
            if has_tfs && len == 0 {
                return Err(corrupt("frequencies without postings"));
            }
            posting_count += len as u64;

            // A short list: its stream, skipped by its length.  Whatever its
            // bits, it decodes to `len` ascending ids below the universe, if
            // the universe holds that many.
            if is_short(len) {
                if len as u64 > universe {
                    return Err(corrupt(format!(
                        "{len} postings of term {slot} in a universe of {universe}"
                    )));
                }
                let stream = reader.u64()?;
                let ids_at = reader.pos();
                reader.take(stream, "short list")?;
                posting_bytes += reader.pos() - ids_at;
                terms.push(TermEntry {
                    entry_at,
                    ids_at: ids_at as u32,
                    tfs_at: reader.pos() as u32,
                    blocks_at: skips.len() as u32,
                });
                continue;
            }

            let block_count = len.div_ceil(BLOCK_SIZE);
            let multi_block = block_count > 1;
            // Every block takes a byte at least (its first id), and in a
            // list of several a skip entry's byte too.
            if block_count * if multi_block { 2 } else { 1 } > reader.remaining() {
                return Err(corrupt(format!(
                    "{block_count} blocks cannot fit in the {} bytes left",
                    reader.remaining()
                )));
            }
            let blocks_at = skips.len();
            let mut last = 0u32;
            for i in 0..if multi_block { block_count } else { 0 } {
                let past_u32 = || corrupt(format!("skip entry {i} lies past the last id"));
                last = last.checked_add(reader.u32()?).ok_or_else(past_u32)?;
                skips.push(SkipEntry { last: FileId(last), offset: 0 });
            }
            if multi_block && u64::from(last) >= universe {
                return Err(corrupt(format!("term {slot} has ids past its universe")));
            }

            // The id blocks: each one's offset is where the block before
            // ends.  A block's first id — for every block but the first, a
            // gap less one from the last id of the block before — is not
            // past its own last id.
            let bad_block = |i| corrupt(format!("block {i} of term {slot} is malformed"));
            let ids_at = reader.pos();
            let mut at = ids_at;
            let mut previous_last: Option<u32> = None;
            for i in 0..block_count {
                let offset = (at - ids_at) as u32;
                let stored = checked_u32(bytes, &mut at).ok_or_else(|| bad_block(i))?;
                if multi_block {
                    let skip = &mut skips[blocks_at + i];
                    skip.offset = offset;
                    let first = match previous_last {
                        Some(before) => before.checked_add(stored).and_then(|id| id.checked_add(1)),
                        None => Some(stored),
                    };
                    if first.is_none_or(|first| first > skip.last.as_u32()) {
                        return Err(corrupt(format!("skip entry {i} is out of order")));
                    }
                    previous_last = Some(skip.last.as_u32());
                }
                let ids = block_len(len, i);
                if ids > 1 {
                    at = block_end(bytes, at, ids - 1).ok_or_else(|| bad_block(i))?;
                }
            }

            // The tf blocks, the same way, when the count says they follow.
            let tfs_at = at;
            for i in 0..if has_tfs { block_count } else { 0 } {
                if multi_block {
                    freq_offsets.push((at - tfs_at) as u32);
                }
                at = block_end(bytes, at, block_len(len, i))
                    .ok_or_else(|| corrupt(format!("tf block {i} of term {slot} is malformed")))?;
            }
            reader.skip_to(at);
            freq_offsets.resize(skips.len(), 0);

            posting_bytes +=
                tfs_at - ids_at + (skips.len() - blocks_at) * std::mem::size_of::<SkipEntry>();
            terms.push(TermEntry {
                entry_at,
                ids_at: ids_at as u32,
                tfs_at: tfs_at as u32,
                blocks_at: blocks_at as u32,
            });
        }
        if reader.remaining() != 0 {
            return Err(corrupt(format!(
                "{} trailing bytes after the last term",
                reader.remaining()
            )));
        }
        // Probed once the walk is over, the table is not pushed out of the
        // cache by the bytes streaming past.
        let mut lookup = vec![0u32; lookup_len(term_count)];
        let mask = lookup.len().wrapping_sub(1);
        for (slot, &hash) in hashes.iter().enumerate() {
            let mut probe = hash as usize & mask;
            while lookup[probe] != 0 {
                probe = (probe + 1) & mask;
            }
            lookup[probe] = slot as u32 + 1;
        }
        skips.shrink_to_fit();
        freq_offsets.shrink_to_fit();
        Ok(Tables {
            universe,
            terms,
            skips,
            freq_offsets,
            lookup,
            shared,
            posting_count,
            posting_bytes,
        })
    }

    /// The shard of these tables over the `bytes` they were laid over.
    fn into_shard(self, bytes: Vec<u8>, files: u64, norms: Norms) -> SealedShard {
        let Tables {
            universe,
            terms,
            skips,
            freq_offsets,
            lookup,
            shared,
            posting_count,
            posting_bytes,
        } = self;
        SealedShard {
            bytes,
            universe,
            terms,
            skips,
            freq_offsets,
            lookup,
            shared,
            files,
            posting_count,
            posting_bytes,
            norms,
        }
    }
}

/// Reads the front-coded term of dictionary slot `slot` over `term`, the
/// term of the slot before, and checks it: a restart slot shares nothing, any
/// other slot all it shares, and no more bytes than the term before has; the
/// term ascends strictly from the one before, is valid UTF-8 and is at most
/// [`MAX_TERM_LEN`] bytes long.  Returns the count of bytes it shares.
fn next_term(
    reader: &mut Reader<'_>,
    slot: usize,
    term: &mut Vec<u8>,
) -> Result<usize, BlockFormatError> {
    let (shared, len) = reader.head()?;
    let restart = slot.is_multiple_of(RESTART_INTERVAL);
    if (restart && shared > 0) || shared > term.len() as u64 {
        let (kind, before) = if restart { ("restart ", 0) } else { ("", term.len()) };
        return Err(corrupt(format!(
            "{kind}term {slot} shares {shared} bytes with a term of {before}"
        )));
    }
    if len > MAX_TERM_LEN - shared {
        return Err(corrupt(format!(
            "term of {} bytes exceeds the limit {MAX_TERM_LEN}",
            shared.saturating_add(len)
        )));
    }
    let shared = shared as usize;
    let rest = reader.take(len, "term")?;
    let ascends = if restart {
        slot == 0 || rest > &term[..]
    } else {
        match (rest.first(), term.get(shared)) {
            (Some(&next), Some(&before)) if next == before => {
                return Err(corrupt(format!(
                    "term {slot} shares more than {shared} bytes with the term before"
                )));
            }
            (Some(&next), before) => before.is_none_or(|&before| next > before),
            (None, _) => false,
        }
    };
    if !ascends {
        return Err(corrupt("terms are not strictly ascending"));
    }
    term.truncate(shared);
    term.extend_from_slice(rest);
    // Most terms are ASCII, which is checked a word at a time.
    if !term.is_ascii() && std::str::from_utf8(term).is_err() {
        return Err(corrupt("term is not valid UTF-8"));
    }
    Ok(shared)
}

/// Ids in block `index` of a list of `len`: every block is full but the
/// last.
fn block_len(len: usize, index: usize) -> usize {
    (len - index * BLOCK_SIZE).min(BLOCK_SIZE)
}

/// Slots of the exact-term lookup of `terms` terms: a power of two at least
/// half again as many, none for none.
fn lookup_len(terms: usize) -> usize {
    if terms == 0 {
        0
    } else {
        (terms * 3 / 2 + 1).next_power_of_two()
    }
}

/// The document count BM25 scores against: the number of documents with a
/// recorded length, so that a partial replica sealed in memory and the same
/// replica loaded from its segment (over the whole run's document table)
/// agree; `fallback` when no lengths were recorded at all.
fn scored_population(recorded_lens: usize, fallback: u64) -> u64 {
    if recorded_lens == 0 {
        fallback
    } else {
        recorded_lens as u64
    }
}

/// One source's posting list of one term.  Sorted by term, the entries of
/// every source line up: a run of equal terms is one term of the seal.
#[derive(Debug, Clone, Copy)]
struct Entry<'a> {
    /// The term's first eight bytes, big-endian (zeros past its end), which
    /// order as the terms do.  With the length beside it this decides most
    /// comparisons — all of them between terms of at most eight bytes —
    /// without following `term` to its text, which for the same term in two
    /// sources is two cache misses.
    prefix: u64,
    term: &'a str,
    list: &'a PostingList,
}

impl<'a> Entry<'a> {
    fn new((term, list): (&'a Term, &'a PostingList)) -> Self {
        let term = term.as_str();
        let mut prefix = [0u8; 8];
        let shared = term.len().min(8);
        prefix[..shared].copy_from_slice(&term.as_bytes()[..shared]);
        Entry { prefix: u64::from_be_bytes(prefix), term, list }
    }

    /// The order of the terms' bytes.
    fn cmp_term(&self, other: &Self) -> std::cmp::Ordering {
        self.prefix.cmp(&other.prefix).then_with(|| {
            if self.term.len().max(other.term.len()) <= 8 {
                // Equal prefixes: one term is the other plus NUL bytes.
                self.term.len().cmp(&other.term.len())
            } else {
                self.term.cmp(other.term)
            }
        })
    }

    fn same_term(&self, other: &Self) -> bool {
        self.cmp_term(other).is_eq()
    }
}

/// The terms of sorted entries: each a run of one term's lists.
fn runs<'e, 'a>(entries: &'e [Entry<'a>]) -> impl Iterator<Item = &'e [Entry<'a>]> {
    entries.chunk_by(Entry::same_term)
}

/// Postings a chunk of the seal aims at: about 40 kB of entries, so that a
/// large index is many chunks and a handful of them in flight is a small
/// share of it.
const CHUNK_WEIGHT: usize = 1 << 15;

/// What a term weighs in its chunk besides its postings (its allocations and
/// its dictionary bytes cost about this many postings' encoding).
const TERM_WEIGHT: usize = 16;

/// The seal: *k ≥ 1* source indexes — one index, or the un-joined replicas
/// of one run — as the term entries of **one** shard, in dictionary order.
///
/// **One merge.**  The `(term, list)` entries of every source are sorted by
/// term once.  A term's lists are decoded and merged by document id — the
/// sources of one run hold disjoint files; an id present twice keeps the
/// larger frequency, which is what [`PostingList::union_with`] keeps, so the
/// seal of the replicas is the seal of their join
/// ([`join_all`](crate::join_all)) for any input — and block-encoded once,
/// scored against the whole population: the file counts summed, the norm
/// table built from the union of the recorded lengths.  No hash table is
/// built and no index is joined.
///
/// **Sealed in parallel, emitted in order.**  No state crosses a term
/// ([`encode_term`]), so the sorted entries are cut at term boundaries into
/// chunks of comparable posting counts, the chunks are encoded concurrently
/// and handed out in term order ([`SealedTerms::encode`]).  A chunk's bytes
/// are the concatenation of its terms' entries, so the shard's bytes depend
/// neither on where the cuts fall nor on how many threads encode.
#[derive(Debug)]
pub struct SealedTerms<'a> {
    entries: Vec<Entry<'a>>,
    /// Distinct terms: the runs of `entries`.
    terms: usize,
    files: u64,
    /// One past the largest id of any source: what short lists are coded
    /// over.
    universe: u64,
    /// Every recorded document length, id ascending.
    doc_lens: Vec<(FileId, u32)>,
    /// The length norms of `doc_lens`; empty for an unscored index.
    norms: Norms,
}

/// A stretch of consecutive terms, sealed: what [`SealedTerms::encode`]
/// hands out.
#[derive(Debug, Default)]
pub struct SealedChunk {
    /// The terms' entries, as [`encode_term`] writes them, in term order.
    pub bytes: Vec<u8>,
    /// Postings behind them.
    pub postings: u64,
    /// `bytes` by section.
    pub sections: SectionBytes,
}

/// One encoding thread's buffers, reused from term to term.
#[derive(Default)]
struct Scratch {
    /// The term's ids and frequencies, decoded.
    ids: Vec<FileId>,
    freqs: Vec<u32>,
    /// Where a term with several lists is merged, list by list.
    merged_ids: Vec<FileId>,
    merged_freqs: Vec<u32>,
}

impl Scratch {
    /// Decodes the union of one term's lists into `ids` and `freqs`: the
    /// first two merged as they are decoded, each further one folded in.
    fn decode(&mut self, run: &[Entry<'_>]) {
        let [first, rest @ ..] = run else { return };
        let [second, rest @ ..] = rest else {
            return first.list.decode_into(&mut self.ids, &mut self.freqs);
        };
        unite(first.list.iter_counted(), second.list, &mut self.ids, &mut self.freqs);
        for Entry { list, .. } in rest {
            let held = self.ids.iter().copied().zip(self.freqs.iter().copied());
            unite(held, list, &mut self.merged_ids, &mut self.merged_freqs);
            std::mem::swap(&mut self.ids, &mut self.merged_ids);
            std::mem::swap(&mut self.freqs, &mut self.merged_freqs);
        }
    }
}

/// Makes `ids` and `freqs` the union of `held` (ascending by id) and `list`;
/// an id on both sides keeps the larger frequency.
fn unite(
    held: impl ExactSizeIterator<Item = (FileId, u32)>,
    list: &PostingList,
    ids: &mut Vec<FileId>,
    freqs: &mut Vec<u32>,
) {
    ids.clear();
    freqs.clear();
    ids.reserve(held.len() + list.len());
    freqs.reserve(held.len() + list.len());
    let mut held = held.peekable();
    for (id, mut tf) in list.iter_counted() {
        while let Some((before, its_tf)) = held.next_if(|&(held, _)| held < id) {
            ids.push(before);
            freqs.push(its_tf);
        }
        if let Some((_, its_tf)) = held.next_if(|&(held, _)| held == id) {
            tf = tf.max(its_tf);
        }
        ids.push(id);
        freqs.push(tf);
    }
    for (id, tf) in held {
        ids.push(id);
        freqs.push(tf);
    }
}

impl<'a> SealedTerms<'a> {
    /// Sorts the vocabularies of `sources` into one and computes the length
    /// norms of their union; no posting list is touched until
    /// [`encode`](SealedTerms::encode).
    #[must_use]
    pub fn new(sources: &'a [InMemoryIndex]) -> Self {
        let mut entries: Vec<Entry<'a>> =
            sources.iter().flat_map(InMemoryIndex::iter).map(Entry::new).collect();
        entries.sort_unstable_by(Entry::cmp_term);
        let terms = runs(&entries).count();
        // A file two sources measured keeps the larger length, as a join
        // does: sorted by id then length, the last of an id's pairs.
        let mut doc_lens: Vec<(FileId, u32)> =
            sources.iter().flat_map(InMemoryIndex::doc_lens).collect();
        doc_lens.sort_unstable();
        doc_lens.dedup_by(|later, kept| {
            let same_file = later.0 == kept.0;
            if same_file {
                kept.1 = later.1;
            }
            same_file
        });
        let counted = sources.iter().map(InMemoryIndex::file_count).sum();
        let last = entries.iter().filter_map(|entry| entry.list.last()).max();
        SealedTerms {
            entries,
            terms,
            files: scored_population(doc_lens.len(), counted),
            universe: last.map_or(0, |last| u64::from(last.as_u32()) + 1),
            norms: build_norms(&doc_lens),
            doc_lens,
        }
    }

    /// Number of distinct terms.
    #[must_use]
    pub fn term_count(&self) -> usize {
        self.terms
    }

    /// Every document length the sources recorded, id ascending.
    #[must_use]
    pub fn doc_lens(&self) -> &[(FileId, u32)] {
        &self.doc_lens
    }

    /// One past the largest id of any source (0 for none): the id universe
    /// the term section states after its term count, which its short lists
    /// are coded over.  It depends on the postings alone, so every way of
    /// building one index seals to the same bytes.
    #[must_use]
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Seals every term and hands the encoded chunks to `sink` in term
    /// order, on the calling thread.  Chunks are encoded on as many threads
    /// as the machine has cores, the caller's among them; at most two a
    /// thread exist at a time, so the encoded shard is never held whole
    /// unless `sink` keeps it.
    ///
    /// # Errors
    ///
    /// The first error of `sink`, after which nothing more is handed out.
    pub fn encode<E>(&self, sink: impl FnMut(SealedChunk) -> Result<(), E>) -> Result<(), E> {
        self.encode_on(std::thread::available_parallelism().map_or(1, usize::from), sink)
    }

    /// [`encode`](SealedTerms::encode) on `threads` threads.
    ///
    /// # Errors
    ///
    /// As [`encode`](SealedTerms::encode).
    pub fn encode_on<E>(
        &self,
        threads: usize,
        sink: impl FnMut(SealedChunk) -> Result<(), E>,
    ) -> Result<(), E> {
        self.encode_chunked(threads, CHUNK_WEIGHT, sink)
    }

    fn encode_chunked<E>(
        &self,
        threads: usize,
        chunk_weight: usize,
        sink: impl FnMut(SealedChunk) -> Result<(), E>,
    ) -> Result<(), E> {
        let chunks = self.chunks(chunk_weight);
        let encode =
            |chunk: usize, scratch: &mut Scratch| self.encode_chunk(chunks[chunk], scratch);
        in_order(chunks.len(), threads.clamp(1, chunks.len().max(1)), encode, sink)
    }

    /// Cuts the entries at term boundaries into stretches of about
    /// `chunk_weight` postings.
    fn chunks(&self, chunk_weight: usize) -> Vec<Cut> {
        let mut chunks = Vec::new();
        let (mut cut, mut weight) = (Cut { from: 0, to: 0, slot: 0 }, 0);
        for (slot, run) in runs(&self.entries).enumerate() {
            cut.to += run.len();
            weight += TERM_WEIGHT + run.iter().map(|entry| entry.list.len()).sum::<usize>();
            if weight >= chunk_weight {
                chunks.push(cut);
                (cut, weight) = (Cut { from: cut.to, to: cut.to, slot: slot + 1 }, 0);
            }
        }
        if cut.from < cut.to {
            chunks.push(cut);
        }
        chunks
    }

    /// Seals the terms of one chunk: each term's postings merged, compressed
    /// and given their bound byte, then encoded behind the term before —
    /// for the chunk's first, the last of the chunk before.
    fn encode_chunk(&self, cut: Cut, scratch: &mut Scratch) -> SealedChunk {
        let mut sealed = SealedChunk::default();
        let mut previous = cut.from.checked_sub(1).map_or("", |before| self.entries[before].term);
        for (slot, run) in (cut.slot..).zip(runs(&self.entries[cut.from..cut.to])) {
            scratch.decode(run);
            let (ids, freqs) = (&scratch.ids, &scratch.freqs);
            let mut compressed = CompressedPostings::from_counted(ids, freqs, self.universe);
            if !self.norms.is_empty() {
                let saturations =
                    ids.iter().zip(freqs).map(|(&id, &tf)| saturation(tf, self.norms.at(id)));
                compressed.set_bound(bm25_bound_byte(saturations.fold(0.0, f64::max)));
            }
            sealed.postings += ids.len() as u64;
            let term = run[0].term;
            sealed.sections +=
                encode_term(&mut sealed.bytes, slot, previous, term, compressed.view());
            previous = term;
        }
        sealed
    }
}

/// A chunk of the seal: the entries `from..to`, whose first term is
/// dictionary slot `slot`.
#[derive(Debug, Clone, Copy)]
struct Cut {
    from: usize,
    to: usize,
    slot: usize,
}

/// What [`in_order`]'s threads share: which items are taken, which results
/// wait, how far the caller has consumed them.
struct Line<T> {
    /// Items `..claimed` are made or being made.
    claimed: usize,
    /// Results `..consumed` went to the sink.
    consumed: usize,
    /// Result `i` waits at `i % waiting.len()`; only items
    /// `consumed..consumed + waiting.len()` may be claimed, so no two share
    /// a place.
    waiting: Vec<Option<T>>,
    /// The sink failed or a thread panicked: nothing more is made.
    stopped: bool,
}

/// What a thread of [`in_order`] does next.
enum Turn<T> {
    Make(usize),
    Consume(T),
    Done,
}

/// Makes `make(i, &mut scratch)` for every `i` in `0..count` on `threads`
/// threads — the caller's among them, each with a scratch of its own — and
/// hands the results to `sink` in order of `i`, on the caller's thread.  At
/// most `2 * threads` results are made and not yet consumed at any time.
fn in_order<S: Default, T: Send, E>(
    count: usize,
    threads: usize,
    make: impl Fn(usize, &mut S) -> T + Sync,
    mut sink: impl FnMut(T) -> Result<(), E>,
) -> Result<(), E> {
    let window = 2 * threads;
    let line = Mutex::new(Line {
        claimed: 0,
        consumed: 0,
        waiting: (0..window).map(|_| None).collect(),
        stopped: false,
    });
    let moved = Condvar::new();
    let lock = || line.lock().expect("nothing under the line's lock panics");
    // A thread that unwinds will never deliver what it claimed, or consume
    // what the others wait to hand over: it stops the line on its way out,
    // the others return, and the scope raises the panic.
    struct StopIfUnwinding<'l, T>(&'l Mutex<Line<T>>, &'l Condvar);
    impl<T> Drop for StopIfUnwinding<'_, T> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                if let Ok(mut line) = self.0.lock() {
                    line.stopped = true;
                }
                self.1.notify_all();
            }
        }
    }
    // The caller consumes before it makes; the others only make.
    let turn = |consumes: bool| -> Turn<T> {
        let mut line = lock();
        loop {
            let finished = if consumes { line.consumed } else { line.claimed } == count;
            if line.stopped || finished {
                return Turn::Done;
            }
            let next = line.consumed % window;
            if let Some(made) = line.waiting[next].take_if(|_| consumes) {
                return Turn::Consume(made);
            }
            if line.claimed < count.min(line.consumed + window) {
                line.claimed += 1;
                return Turn::Make(line.claimed - 1);
            }
            line = moved.wait(line).expect("nothing under the line's lock panics");
        }
    };
    let make = |item: usize, scratch: &mut S| {
        let made = make(item, scratch);
        lock().waiting[item % window] = Some(made);
        moved.notify_all();
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| {
                let _stop = StopIfUnwinding(&line, &moved);
                let mut scratch = S::default();
                while let Turn::Make(item) = turn(false) {
                    make(item, &mut scratch);
                }
            });
        }
        let _stop = StopIfUnwinding(&line, &moved);
        let mut scratch = S::default();
        loop {
            match turn(true) {
                Turn::Make(item) => make(item, &mut scratch),
                Turn::Consume(made) => {
                    let sunk = sink(made);
                    let mut line = lock();
                    line.consumed += 1;
                    line.stopped |= sunk.is_err();
                    drop(line);
                    moved.notify_all();
                    sunk?;
                }
                Turn::Done => return Ok(()),
            }
        }
    })
}

/// BM25 length norms by document id, in memory proportional to the lengths
/// recorded, whatever the span of their ids: a dense table over
/// `[base ..= highest id]` when the recorded ids fill at least a quarter of
/// that span (every store a run writes: its ids are dense), else the
/// recorded `(id, norm)` pairs, id ascending.  An id without a recorded
/// length reads as the neutral norm; no table at all means unscored.
#[derive(Debug, Clone, Default, PartialEq)]
struct Norms {
    base: u32,
    dense: Vec<f32>,
    sparse: Vec<(u32, f32)>,
}

impl Norms {
    /// The norm of `id`: the dense table's slot when it has one — the
    /// per-posting path, one bounds check as ever — else the sparse pairs'.
    fn at(&self, id: FileId) -> f32 {
        match self.dense.get(id.as_u32().wrapping_sub(self.base) as usize) {
            Some(&norm) => norm,
            None => self.sparse_at(id.as_u32()),
        }
    }

    fn sparse_at(&self, id: u32) -> f32 {
        match self.sparse.binary_search_by_key(&id, |&(id, _)| id) {
            Ok(at) => self.sparse[at].1,
            Err(_) => bm25_neutral_norm(),
        }
    }

    fn is_empty(&self) -> bool {
        self.dense.is_empty() && self.sparse.is_empty()
    }

    fn heap_bytes(&self) -> usize {
        self.dense.capacity() * std::mem::size_of::<f32>()
            + self.sparse.capacity() * std::mem::size_of::<(u32, f32)>()
    }
}

/// Builds the BM25 norm table from `(file, document length)` pairs; empty
/// (unscored) when no lengths were recorded or they sum to zero.
/// Order-insensitive, so the seal path and the segment-load path produce
/// identical tables; where an id repeats, its last pair counts.
fn build_norms(pairs: &[(FileId, u32)]) -> Norms {
    let total: u64 = pairs.iter().map(|&(_, len)| u64::from(len)).sum();
    if total == 0 {
        return Norms::default();
    }
    let avg = total as f64 / pairs.len() as f64;
    let norm = |len: u32| {
        let scale = 1.0 - f64::from(BM25_B) + f64::from(BM25_B) * (f64::from(len) / avg);
        (f64::from(BM25_K1) * scale) as f32
    };
    let base = pairs.iter().map(|&(id, _)| id.as_u32()).min().expect("non-empty");
    let top = pairs.iter().map(|&(id, _)| id.as_u32()).max().expect("non-empty");
    let span = u64::from(top - base) + 1;
    if span <= 4 * pairs.len() as u64 {
        let mut dense = vec![bm25_neutral_norm(); span as usize];
        for &(id, len) in pairs {
            dense[(id.as_u32() - base) as usize] = norm(len);
        }
        return Norms { base, dense, sparse: Vec::new() };
    }
    let mut sparse: Vec<(u32, f32)> =
        pairs.iter().map(|&(id, len)| (id.as_u32(), norm(len))).collect();
    // Stable: of an id's pairs, the last stays last, and is the one kept.
    sparse.sort_by_key(|&(id, _)| id);
    sparse.dedup_by(|later, kept| {
        let same_file = later.0 == kept.0;
        if same_file {
            kept.1 = later.1;
        }
        same_file
    });
    Norms { base: 0, dense: Vec::new(), sparse }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shard laid over `bytes`, nothing read beside it.
    fn from_bytes(
        bytes: Vec<u8>,
        terms_at: usize,
        doc_count: u64,
        doc_lens: &[(FileId, u32)],
    ) -> Result<SealedShard, BlockFormatError> {
        SealedShard::from_bytes_beside(bytes, terms_at, doc_count, doc_lens, false, |_| ()).0
    }
    use crate::block::PostingCursor;
    use proptest::prelude::*;

    /// The list decoded into an owned [`PostingList`], frequencies included.
    fn to_list(view: CompressedView<'_>) -> PostingList {
        let (mut ids, mut tfs) = (Vec::new(), Vec::new());
        view.decode_into(&mut ids);
        view.decode_freqs_into(&mut tfs);
        tfs.resize(ids.len(), 1);
        ids.into_iter().zip(tfs).collect()
    }

    fn t(s: &str) -> Term {
        Term::from(s)
    }

    fn sample_index() -> InMemoryIndex {
        let mut index = InMemoryIndex::new();
        index.insert_file(FileId(0), [t("index"), t("indexes"), t("rust")]);
        index.insert_file(FileId(1), [t("index"), t("into")]);
        index.insert_file(FileId(2), [t("rust"), t("zebra")]);
        index
    }

    /// `index` as a segment carries it: the term count and entries the writer
    /// streams, and the recorded lengths in id order.
    fn encode(index: &InMemoryIndex) -> (Vec<u8>, Vec<(FileId, u32)>) {
        let mut lens: Vec<(FileId, u32)> = index.doc_lens().collect();
        lens.sort_unstable_by_key(|&(id, _)| id);
        (SealedShard::from_index(index).bytes, lens)
    }

    #[test]
    fn sealing_preserves_lookups() {
        let index = sample_index();
        let shard = SealedShard::from_index(&index);
        assert_eq!(shard.term_count(), 5);
        assert_eq!(shard.posting_count(), 7);
        assert_eq!(shard.file_count(), 3);
        assert!(!shard.is_empty());

        let rust = shard.postings(&t("rust")).unwrap();
        assert_eq!(to_list(rust).doc_ids(), &[FileId(0), FileId(2)]);
        assert!(shard.postings(&t("cobol")).is_none());
        assert!(SealedShard::default().postings(&t("rust")).is_none());

        // Dictionary order.
        let terms: Vec<String> = shard.iter().map(|(term, _)| term).collect();
        assert_eq!(terms, ["index", "indexes", "into", "rust", "zebra"]);
    }

    #[test]
    fn prefix_ranges_match_linear_expectations() {
        let shard = SealedShard::from_index(&sample_index());
        assert_eq!(shard.prefix_postings("inde").len(), 2);
        assert_eq!(shard.prefix_postings("in").len(), 3);
        assert_eq!(shard.prefix_postings("").len(), 5);
        assert_eq!(shard.prefix_postings("zz").len(), 0);
        assert_eq!(shard.prefix_postings("zzzz").len(), 0);
        assert_eq!(shard.prefix_postings("zebra").len(), 1);
    }

    #[test]
    fn a_shard_is_one_buffer_and_flat_tables() {
        let mut index = InMemoryIndex::new();
        for i in 0..5_000u32 {
            index.insert_file(FileId(i), [t("common"), Term::from(format!("rare{i:05}"))]);
        }
        let shard = SealedShard::from_index(&index);
        // >= 2x compression of the postings themselves ...
        assert!(
            shard.posting_bytes() * 2 <= shard.uncompressed_posting_bytes(),
            "expected >= 2x compression, got {} vs {}",
            shard.posting_bytes(),
            shard.uncompressed_posting_bytes()
        );
        // ... and the whole shard is its encoded bytes plus a bounded table
        // cost per term and per document.
        let (bytes, _) = encode(&index);
        let tables = shard.resident_bytes() - bytes.len();
        let per_term = std::mem::size_of::<TermEntry>() + 3 * std::mem::size_of::<u32>();
        assert!(tables <= 5_001 * per_term + 5_000 * 4 + 40 * 16, "tables cost {tables} bytes");
    }

    #[test]
    fn counted_seal_scores_blocks() {
        let mut index = InMemoryIndex::new();
        index.insert_file_counted(FileId(3), [(t("rust"), 4u32), (t("search"), 1)]);
        index.insert_file_counted(FileId(7), [(t("rust"), 1u32), (t("index"), 2)]);
        let shard = SealedShard::from_index(&index);
        assert!(shard.has_scoring());

        let rust = shard.postings(&t("rust")).unwrap();
        assert!(rust.bound() > 0);
        // The stored bound is admissible: at least the true best score.
        let idf = shard.idf(2);
        let best = bm25_score(idf, 4, shard.doc_norm(FileId(3))).max(bm25_score(
            idf,
            1,
            shard.doc_norm(FileId(7)),
        ));
        assert!(bm25_bound(idf, rust.bound()) >= f64::from(best));
        // tf survives sealing.
        assert_eq!(to_list(rust).tf_of(FileId(3)), Some(4));

        // Longer-than-average docs get a norm above neutral, shorter below.
        assert!(shard.doc_norm(FileId(3)) > bm25_neutral_norm());
        assert!(shard.doc_norm(FileId(7)) < bm25_neutral_norm());
        // Unknown documents read as neutral.
        assert_eq!(shard.doc_norm(FileId(999)).to_bits(), bm25_neutral_norm().to_bits());
    }

    #[test]
    fn uncounted_seal_is_scored_with_tf_one() {
        // insert_file records each distinct term once, so tf = 1 everywhere
        // and the bound is that of the best tf=1 score across its documents.
        let shard = SealedShard::from_index(&sample_index());
        assert!(shard.has_scoring());
        let rust = shard.postings(&t("rust")).unwrap();
        let (short, long) = (shard.doc_norm(FileId(2)), shard.doc_norm(FileId(0)));
        assert!(short < long);
        assert_eq!(rust.bound(), bm25_bound_byte(saturation(1, short)));
        // Quantized up: never below the best score, at most one step of
        // 1/255 of the ceiling above it.
        let idf = shard.idf(2);
        let (best, bound) = (f64::from(bm25_score(idf, 1, short)), bm25_bound(idf, rust.bound()));
        assert!(bound >= best && bound <= best + bm25_bound(idf, 1), "{bound} vs {best}");
    }

    #[test]
    fn a_saturation_on_a_quantization_step_still_bounds_its_f32_score() {
        // tf 1 under norm 254 saturates at exactly 1/255: quantized without
        // the margin the byte would be 1, a bound the f32 score passes by a
        // unit in its last place.
        let (tf, norm, idf) = (1, 254.0, f32::from_bits(0x3f80_1379));
        assert!(bm25_score(idf, tf, norm) > bm25_bound(idf, 1) as f32);
        let bound = bm25_bound_byte(saturation(tf, norm));
        assert_eq!(bound, 2);
        assert!(bm25_score(idf, tf, norm) <= bm25_bound(idf, bound) as f32);
    }

    /// The term entries `sources` seal to, through `threads` threads and
    /// chunks of `chunk_weight`.
    fn sealed_entries(sources: &[InMemoryIndex], threads: usize, chunk_weight: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        let sealing = SealedTerms::new(sources);
        let Ok(()) = sealing.encode_chunked(threads, chunk_weight, |chunk| {
            bytes.extend_from_slice(&chunk.bytes);
            Ok::<(), std::convert::Infallible>(())
        });
        bytes
    }

    #[test]
    fn sealed_bytes_depend_neither_on_the_cuts_nor_on_the_threads() {
        // 140 terms of 20 postings each, so that a chunk weight counts terms.
        let mut index = InMemoryIndex::new();
        for file in 0..20u32 {
            let terms = (0..140).map(|i| (Term::from(format!("t{i:03}")), file % 3 + i % 2 + 1));
            index.insert_file_counted(FileId(3 * file), terms);
        }
        let sources = std::slice::from_ref(&index);
        let term_weight = TERM_WEIGHT + 20;
        let whole = sealed_entries(sources, 1, usize::MAX);
        for (terms_a_chunk, chunks) in [(140, 1), (70, 2), (20, 7)] {
            let weight = terms_a_chunk * term_weight;
            assert_eq!(SealedTerms::new(sources).chunks(weight).len(), chunks);
            for threads in [1, 3] {
                assert_eq!(sealed_entries(sources, threads, weight), whole, "{chunks}/{threads}");
            }
        }
        // And they are the shard's: what `from_index` collects behind the
        // term count (140: two bytes) and the universe (58: one).
        assert_eq!(SealedTerms::new(sources).universe(), 58);
        assert_eq!(SealedShard::from_index(&index).bytes[3..], whole[..]);
        // Nothing to seal is nothing handed out, on any number of threads.
        assert!(sealed_entries(&[], 3, 1).is_empty());
        assert!(sealed_entries(&[InMemoryIndex::new()], 0, 1).is_empty());
    }

    #[test]
    fn results_come_in_order_and_a_bounded_number_wait() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let (threads, count) = (3, 50);
        let window = 2 * threads;
        // Made and not yet consumed, and the most there ever were.
        let (live, most, made) = (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
        let make = |item: usize, _: &mut ()| {
            most.fetch_max(live.fetch_add(1, SeqCst) + 1, SeqCst);
            made.fetch_add(1, SeqCst);
            item
        };
        let mut seen = Vec::new();
        let consumed = in_order(count, threads, make, |item| {
            // The first result is held until the others have filled the
            // window: they may not run further ahead than that.
            while seen.is_empty() && made.load(SeqCst) < window {
                std::thread::yield_now();
            }
            seen.push(item);
            live.fetch_sub(1, SeqCst);
            Ok::<(), ()>(())
        });
        assert_eq!(consumed, Ok(()));
        assert_eq!(seen, (0..count).collect::<Vec<_>>());
        assert_eq!(most.load(SeqCst), window);

        // A failing sink is the result, is not called again, and stops the
        // making within the window.
        let made = AtomicUsize::new(0);
        let mut calls = 0;
        let failed = in_order(
            count,
            threads,
            |item, _: &mut ()| {
                made.fetch_add(1, SeqCst);
                item
            },
            |item| {
                calls += 1;
                if item == 3 {
                    Err("full")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!((failed, calls), (Err("full"), 4));
        assert!(made.load(SeqCst) <= 4 + window);

        // A panic while making, on whichever thread, is raised — not waited
        // for by the others.
        let panicked = std::panic::catch_unwind(|| {
            let make = |item: usize, _: &mut ()| assert_ne!(item, 20, "unmakeable");
            in_order(count, threads, make, |()| Ok::<(), ()>(()))
        });
        assert!(panicked.is_err());
    }

    proptest! {
        /// Replicas seal to what their join seals to, byte for byte — ids
        /// dealt to any number of replicas in any way, some of them to two
        /// replicas with different frequencies — and to a shard that scores
        /// against the whole population.
        #[test]
        fn replicas_seal_to_the_seal_of_their_join(
            docs in proptest::collection::vec(
                (0u32..300, 0usize..5, proptest::collection::vec(("[a-c]{1,3}", 1u32..6), 0..6)),
                0..60,
            ),
            replicas in 1usize..=5,
        ) {
            // The same file twice is one file seen by two replicas (or one
            // replica twice, which adds up there as it does in the join).
            let mut sources = vec![InMemoryIndex::new(); replicas];
            for (file, replica, words) in &docs {
                let mut words = words.clone();
                words.sort();
                words.dedup_by(|a, b| a.0 == b.0);
                sources[replica % replicas].insert_file_counted(
                    FileId(*file),
                    words.iter().map(|(word, tf)| (Term::from(word.as_str()), *tf)),
                );
            }
            let joined = crate::join_all(sources.clone());
            let merged = sealed_entries(&sources, 2, 64);
            prop_assert_eq!(&merged, &sealed_entries(std::slice::from_ref(&joined), 1, usize::MAX));
            let sealing = SealedTerms::new(&sources);
            let mut lens: Vec<(FileId, u32)> = joined.doc_lens().collect();
            lens.sort_unstable();
            prop_assert_eq!(sealing.doc_lens(), &lens[..]);
            prop_assert_eq!(sealing.term_count(), joined.term_count());
            let mut bytes = Vec::new();
            write_varint(&mut bytes, sealing.term_count() as u64);
            write_varint(&mut bytes, sealing.universe());
            bytes.extend_from_slice(&merged);
            let shard = SealedShard::lay_over(bytes, 0, sealing.files, sealing.norms).unwrap();
            prop_assert_eq!(shard, SealedShard::from_index(&joined));
        }
    }

    #[test]
    fn encoded_bytes_load_as_the_shard_that_was_sealed() {
        let mut index = InMemoryIndex::new();
        index.insert_file_counted(FileId(0), [(t("a"), 3u32), (t("b"), 1)]);
        index.insert_file_counted(FileId(5), [(t("b"), 7u32)]);
        let sealed = SealedShard::from_index(&index);
        let (entries, lens) = encode(&index);
        // Front matter before the terms (a segment's header and lengths)
        // stays in the buffer, unread; the doc table may cover more documents
        // than this index scored (a partial replica).
        let mut bytes = b"front matter".to_vec();
        bytes.extend_from_slice(&entries);
        let restored = from_bytes(bytes, 12, 40, &lens).unwrap();
        assert_eq!(restored, sealed);
        assert_eq!(restored.file_count(), 2);
        assert!(restored.has_scoring());
        assert_eq!(restored.doc_norm(FileId(5)).to_bits(), sealed.doc_norm(FileId(5)).to_bits());
        // Without recorded lengths the doc table's size is the population.
        let unscored = from_bytes(entries, 0, 40, &[]).unwrap();
        assert_eq!(unscored.file_count(), 40);
        assert!(!unscored.has_scoring());
    }

    #[test]
    fn what_runs_beside_the_tables_runs_once_and_sees_the_same_bytes() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let mut index = InMemoryIndex::new();
        index.insert_file_counted(FileId(1), [(t("a"), 2u32), (t("b"), 1)]);
        let (entries, lens) = encode(&index);
        let bytes = [b"front".to_vec(), entries].concat();
        for helper in [false, true] {
            let runs = AtomicUsize::new(0);
            let (shard, seen) = SealedShard::from_bytes_beside(
                bytes.clone(),
                5,
                2,
                &lens,
                helper,
                |seen: &[u8]| {
                    runs.fetch_add(1, SeqCst);
                    seen.to_vec()
                },
            );
            assert_eq!((runs.load(SeqCst), &seen), (1, &bytes));
            assert_eq!(shard.unwrap(), SealedShard::from_index(&index));
            // Damaged tables still wait for it, and report their own error.
            let (shard, ()) =
                SealedShard::from_bytes_beside(bytes.clone(), 4, 2, &lens, helper, |_| {
                    runs.fetch_add(1, SeqCst);
                });
            assert!(shard.is_err());
            assert_eq!(runs.load(SeqCst), 2);
        }
    }

    /// One hand-built entry, part by part.
    #[derive(Clone, Copy)]
    struct Parts<'a> {
        /// The bytes the term shares with the term before.
        shared: u64,
        /// The rest of the term.
        term: &'a [u8],
        /// The posting count's varint: the count shifted left one bit, the
        /// low bit "tf blocks follow".
        counted: u64,
        /// What stands where the bound byte goes.
        bound: &'a [u8],
        /// Every block's last id, absolute (none for a single block).
        lasts: &'a [u32],
        /// The id blocks; a short list's stream length and stream.
        data: &'a [u8],
        /// The tf blocks.
        freqs: &'a [u8],
        /// What follows the entry.
        tail: &'a [u8],
    }

    impl Parts<'_> {
        fn encode(self) -> Vec<u8> {
            let mut out = Vec::new();
            write_head(&mut out, self.shared, self.term.len() as u64);
            out.extend_from_slice(self.term);
            write_varint(&mut out, self.counted);
            out.extend_from_slice(self.bound);
            let mut last = 0u32;
            for &skip in self.lasts {
                write_varint(&mut out, u64::from(skip.wrapping_sub(last)));
                last = skip;
            }
            out.extend_from_slice(self.data);
            out.extend_from_slice(self.freqs);
            out.extend_from_slice(self.tail);
            out
        }
    }

    /// The universe hand-built entries are over.
    const UNIVERSE: u64 = 300;

    fn load(entries: Vec<u8>, terms: u64) -> Result<SealedShard, BlockFormatError> {
        load_over(entries, terms, UNIVERSE, UNIVERSE)
    }

    /// `entries` behind a count of `terms` and a `universe`, over a doc
    /// table of `doc_count`.
    fn load_over(
        entries: Vec<u8>,
        terms: u64,
        universe: u64,
        doc_count: u64,
    ) -> Result<SealedShard, BlockFormatError> {
        let mut bytes = Vec::new();
        write_varint(&mut bytes, terms);
        write_varint(&mut bytes, universe);
        from_bytes([bytes, entries].concat(), 0, doc_count, &[])
    }

    #[test]
    fn malformed_entries_are_errors_not_panics() {
        let n = BLOCK_SIZE as u64 + 1;
        let small = Parts {
            shared: 0,
            term: b"a",
            counted: 2 << 1,
            bound: &[0],
            lasts: &[],
            data: &[0, 0],
            freqs: &[],
            tail: &[],
        };
        // A short list: ids 0..6 over the universe, its stream behind its
        // length.
        let six: Vec<FileId> = (0..crate::SHORT_LIST_MIN as u32).map(FileId).collect();
        let stream = CompressedPostings::from_sorted(&six, UNIVERSE).view().data().to_vec();
        let short_data = [vec![stream.len() as u8], stream].concat();
        let short = Parts { counted: (six.len() as u64) << 1, data: &short_data, ..small };
        // Two blocks: ids 0..=127 (first id 0, width-0 gaps: one header
        // byte) and id 200 (first id 127 + 1 + 72).
        let big = Parts { counted: n << 1, lasts: &[127, 200], data: &[0, 0, 72], ..small };
        // The well-formed baselines load: last ids in the skip table, first
        // ids and offsets found in the blocks.
        load(small.encode(), 1).unwrap();
        let shard = load(short.encode(), 1).unwrap();
        assert_eq!(to_list(shard.postings(&t("a")).unwrap()).doc_ids(), six);
        let shard = load(big.encode(), 1).unwrap();
        let skips = shard.postings(&t("a")).unwrap().skips().to_vec();
        assert_eq!(skips.iter().map(|s| s.last).collect::<Vec<_>>(), [FileId(127), FileId(200)]);
        assert_eq!(skips.iter().map(|s| s.offset).collect::<Vec<_>>(), [0, 2]);
        // Frequencies: 2 for the first block (width 0 over a base of 1), 1
        // for the second.
        let full = Parts { counted: n << 1 | 1, freqs: &[0x40, 1, 0], bound: &[200], ..big };
        let shard = load(full.encode(), 1).unwrap();
        let list = shard.postings(&t("a")).unwrap();
        assert_eq!((list.bound(), list.freq_offsets()), (200, &[0, 2][..]));
        assert_eq!(to_list(list).tf_of(FileId(0)), Some(2));
        assert_eq!(to_list(list).tf_of(FileId(200)), Some(1));
        // A first-id gap that reaches past `u32` from the block before.
        let mut past_u32 = vec![0, 0];
        write_varint(&mut past_u32, u64::from(u32::MAX - 127));
        let bad = [
            ("first > last", Parts { lasts: &[127, 199], ..big }),
            ("first-id gap past its last", Parts { data: &[0, 0, 73], ..big }),
            ("first-id gap past u32", Parts { data: &past_u32, ..big }),
            ("last backwards", Parts { lasts: &[127, 100], ..big }),
            ("last past u32", Parts { lasts: &[u32::MAX, 0], ..big }),
            ("first id cut short", Parts { data: &[0, 0, 0x80], ..big }),
            ("missing skip table", Parts { lasts: &[], ..big }),
            ("postings without id blocks", Parts { data: &[], ..small }),
            ("a short list without its length", Parts { data: &[], ..short }),
            ("a short list's length past the entry", Parts { data: &[0x7f, 0], ..short }),
            ("a short list's length past u64", Parts { data: &[0xff; 11], ..short }),
            ("fewer id blocks than the count", Parts { data: &[0, 0], ..big }),
            ("width 33", Parts { data: &[0, 33, 72], ..big }),
            ("width 63", Parts { data: &[0, 63], ..small }),
            ("exceptions past the payload", Parts { data: &[0, 0x80, 0x1f], ..small }),
            ("base past u32", Parts { data: &[0, 0x40, 0xff, 0xff, 0xff, 0xff, 0x7f], ..small }),
            ("tf flag without tf blocks", Parts { counted: n << 1 | 1, ..big }),
            ("fewer tf blocks than the count", Parts { freqs: &[0x40, 1], ..full }),
            ("tf block cut short", Parts { freqs: &[0x40], ..full }),
            ("frequencies without postings", Parts { counted: 1, data: &[], freqs: &[0], ..small }),
            ("missing bound byte", Parts { bound: &[], ..small }),
            ("missing bound byte, short", Parts { bound: &[], data: &[1], ..short }),
            ("missing bound byte, multi-block", Parts { bound: &[], ..full }),
            ("term not UTF-8", Parts { term: &[0xff, 0xfe], ..small }),
            ("restart slot sharing bytes", Parts { shared: 1, ..small }),
            ("trailing bytes", Parts { tail: &[7], ..small }),
            ("trailing bytes, multi-block", Parts { tail: &[200, 1], ..full }),
            ("forged posting count", Parts { counted: u64::MAX, data: &[0; 64], ..small }),
            ("more blocks than bytes", Parts { counted: u64::from(u32::MAX - 1), ..small }),
        ];
        for (what, parts) in bad {
            let err = load(parts.encode(), 1).expect_err(what);
            assert!(err.to_string().contains("invalid compressed postings"), "{what}: {err}");
        }
        // The universe: more postings than it holds, a list in blocks with
        // an id at or past it, a universe past `u32`, and one past the doc
        // table.
        let in_universe = |parts: Parts<'_>, universe: u64, doc_count: u64| {
            load_over(parts.encode(), 1, universe, doc_count).map(drop)
        };
        let six_ids = six.len() as u64;
        assert!(in_universe(short, six_ids, six_ids).is_ok());
        assert!(in_universe(short, six_ids - 1, six_ids - 1).is_err());
        assert!(in_universe(big, 201, 201).is_ok());
        assert!(in_universe(big, 200, 200).is_err());
        assert!(in_universe(short, MAX_UNIVERSE, MAX_UNIVERSE).is_ok());
        assert!(in_universe(short, MAX_UNIVERSE + 1, u64::MAX).is_err());
        assert!(in_universe(short, UNIVERSE, UNIVERSE - 1).is_err());
        // A stream cut short — its length says it ends sooner than its codes
        // do — loads and reads as zeros: its ids ascending below the
        // universe, its tfs at least 1.
        let cut = Parts { counted: six_ids << 1 | 1, data: &[1, 0xff], ..small };
        let shard = load(cut.encode(), 1).unwrap();
        let decoded = to_list(shard.postings(&t("a")).unwrap());
        assert_eq!(decoded.len(), six.len());
        assert!(decoded
            .iter_counted()
            .all(|(id, tf)| u64::from(id.as_u32()) < UNIVERSE && tf >= 1));
        // Heads: an escape whose varint is cut short, for the shared count
        // and for the rest's length; a restart slot sharing 15 bytes; a rest
        // longer than the bytes left; a term past the length limit.
        let mut long = vec![0xf0];
        write_varint(&mut long, MAX_TERM_LEN - 15 + 1);
        long.extend_from_slice(&[0; 4]);
        for (what, entries) in [
            ("shared escape cut", vec![0x0f, 0x80, 0x80]),
            ("length escape cut", vec![0xf0, 0x80, 0x80]),
            ("restart slot sharing 15", vec![0x1f, 0, b'a', 2 << 1, 0, 0, 0]),
            ("rest past the bytes", vec![0xe0, b'a', 2 << 1, 0, 0, 0]),
            ("term past the limit", long),
        ] {
            let err = load(entries, 1).expect_err(what);
            assert!(err.to_string().contains("invalid compressed postings"), "{what}: {err}");
        }
        // A term count the bytes cannot hold never sizes the table.
        assert!(load(small.encode(), 2).is_err());
        assert!(load(small.encode(), u64::MAX).is_err());
        // Every truncation of a valid shard is an error.
        let (bytes, _) = encode(&sample_index());
        for cut in 0..bytes.len() {
            assert!(from_bytes(bytes[..cut].to_vec(), 0, 0, &[]).is_err(), "cut {cut}");
        }
        assert!(from_bytes(bytes, usize::MAX, 0, &[]).is_err());
    }

    #[test]
    fn lists_at_the_block_edges_load_as_they_were_encoded_at_both_ends_of_the_ids() {
        // Lists of 1, 5, 6, 127, 128, 129, 256 and 257 postings from id 0
        // and up to `u32::MAX`, every tf 1 and one tf above 1.
        let mut owned = Vec::new();
        for n in [1u32, 5, 6, 127, 128, 129, 256, 257] {
            for first in [0, u32::MAX - n + 1] {
                let ids: Vec<FileId> = (first..=first + (n - 1)).map(FileId).collect();
                let mut tfs = vec![1; ids.len()];
                owned.push(CompressedPostings::from_counted(&ids, &tfs, MAX_UNIVERSE));
                tfs[ids.len() - 1] = 7;
                owned.push(CompressedPostings::from_counted(&ids, &tfs, MAX_UNIVERSE));
            }
        }
        let mut bytes = Vec::new();
        write_varint(&mut bytes, owned.len() as u64);
        write_varint(&mut bytes, MAX_UNIVERSE);
        let terms: Vec<String> = (0..owned.len()).map(|i| format!("list{i:02}")).collect();
        for (slot, list) in owned.iter().enumerate() {
            let previous = slot.checked_sub(1).map_or("", |before| terms[before].as_str());
            encode_term(&mut bytes, slot, previous, &terms[slot], list.view());
        }
        let shard = from_bytes(bytes, 0, MAX_UNIVERSE, &[]).unwrap();
        for (term, list) in terms.iter().zip(&owned) {
            let found = shard.postings(&t(term)).unwrap();
            assert_eq!(found, list.view(), "{term}");
            assert_eq!(to_list(found), to_list(list.view()), "{term}");
        }
    }

    #[test]
    fn the_front_coding_is_canonical_and_ascends() {
        // Terms of one posting each, front-coded by hand: `(shared, rest)`.
        let dictionary = |entries: &[(u64, &str)]| {
            let posting = Parts {
                shared: 0,
                term: b"",
                counted: 1 << 1,
                bound: &[0],
                lasts: &[],
                data: &[0],
                freqs: &[],
                tail: &[],
            };
            let bytes = entries.iter().flat_map(|&(shared, rest)| {
                Parts { shared, term: rest.as_bytes(), ..posting }.encode()
            });
            load(bytes.collect(), entries.len() as u64)
        };
        let shard = dictionary(&[(0, "alpha"), (3, "ine"), (0, "beta")]).unwrap();
        let terms: Vec<String> = shard.iter().map(|(term, _)| term).collect();
        assert_eq!(terms, ["alpha", "alpine", "beta"]);
        for (what, entries) in [
            ("descending", &[(0, "beta"), (0, "alpha")][..]),
            ("the same term twice", &[(0, "beta"), (4, "")]),
            ("a prefix of the term before", &[(0, "alpha"), (2, "")]),
            ("shared longer than the term before", &[(0, "alpha"), (6, "x")]),
            ("shared shorter than all they share", &[(0, "alpha"), (0, "alpine")]),
            ("shared shorter than all they share, inside", &[(0, "alpha"), (2, "pine")]),
            ("shared at slot 0", &[(1, "alpha")]),
        ] {
            let err = dictionary(entries).expect_err(what);
            assert!(err.to_string().contains("invalid compressed postings"), "{what}: {err}");
        }
        // Slot 16 is a restart slot: it stores its whole term, and shares
        // nothing even with a term it has a prefix in common with.
        let terms: Vec<String> = (0..17).map(|i| format!("a{i:02}")).collect();
        let canonical: Vec<(u64, &str)> = (0..terms.len())
            .map(|slot| {
                let before = terms[slot.saturating_sub(1)].bytes();
                let shared = if slot.is_multiple_of(RESTART_INTERVAL) {
                    0
                } else {
                    before.zip(terms[slot].bytes()).take_while(|(a, b)| a == b).count()
                };
                (shared as u64, &terms[slot][shared..])
            })
            .collect();
        assert_eq!(canonical[15..], [(2, "5"), (0, "a16")]);
        let shard = dictionary(&canonical).unwrap();
        for term in &terms {
            assert!(shard.postings(&t(term)).is_some(), "{term}");
        }
        assert_eq!(shard.prefix_postings("a1").len(), 7);
        let mut forged = canonical.clone();
        forged[16] = (2, "6");
        assert!(dictionary(&forged).is_err());
    }

    proptest! {
        /// A sealed shard answers exactly what the source index answers, for
        /// every term and prefix.
        #[test]
        fn sealed_lookups_match_index(
            docs in proptest::collection::vec(
                (0u32..64, proptest::collection::vec("[a-c]{1,4}", 1..6)),
                1..30,
            ),
            probe in "[a-c]{0,4}",
        ) {
            let mut index = InMemoryIndex::new();
            for (file, words) in &docs {
                let mut uniq = words.clone();
                uniq.sort();
                uniq.dedup();
                index.insert_file(FileId(*file), uniq.iter().map(|w| Term::from(w.as_str())));
            }
            let shard = SealedShard::from_index(&index);
            prop_assert_eq!(shard.term_count(), index.term_count());
            prop_assert_eq!(shard.posting_count(), index.posting_count());

            // Exact lookups agree for the probe and for every indexed term.
            let probe_term = Term::from(probe.as_str());
            for term in index.iter().map(|(term, _)| term).chain([&probe_term]) {
                match (index.postings(term), shard.postings(term)) {
                    (Some(list), Some(cp)) => prop_assert_eq!(&to_list(cp), list),
                    (None, None) => {}
                    other => prop_assert!(false, "lookup mismatch: {other:?}"),
                }
            }
            // Prefix ranges cover the same multiset of lists the scan finds.
            let mut scanned: Vec<Vec<FileId>> = index.iter()
                .filter(|(term, _)| term.as_str().starts_with(probe.as_str()))
                .map(|(_, list)| list.doc_ids()).collect();
            scanned.sort();
            let mut ranged: Vec<Vec<FileId>> = shard.prefix_postings(&probe)
                .map(|cp| to_list(cp).doc_ids()).collect();
            ranged.sort();
            prop_assert_eq!(ranged, scanned);
        }

        /// A view found in a shard's bytes reads exactly like the view of
        /// the owned list it was encoded from: same parts and bound byte, and
        /// the same cursor walk, seeks, frequencies and decode.
        #[test]
        fn shard_views_read_like_the_owned_lists(
            lists in proptest::collection::vec(
                (proptest::collection::vec((0u32..40_000, 1u32..9), 1..400), any::<u8>()),
                1..5,
            ),
            seeks in proptest::collection::vec(0u32..41_000, 1..20),
        ) {
            let owned: Vec<CompressedPostings> = lists.into_iter().map(|(mut raw, bound)| {
                raw.sort_unstable_by_key(|&(id, _)| id);
                raw.dedup_by_key(|&mut (id, _)| id);
                let ids: Vec<FileId> = raw.iter().map(|&(id, _)| FileId(id)).collect();
                let tfs = raw.iter().map(|&(_, tf)| tf).collect::<Vec<u32>>();
                let mut cp = CompressedPostings::from_counted(&ids, &tfs, 40_000);
                cp.set_bound(bound);
                cp
            }).collect();
            let mut bytes = Vec::new();
            write_varint(&mut bytes, owned.len() as u64);
            write_varint(&mut bytes, 40_000);
            for (i, cp) in owned.iter().enumerate() {
                let previous = i.checked_sub(1).map(|before| format!("t{before}")).unwrap_or_default();
                encode_term(&mut bytes, i, &previous, &format!("t{i}"), cp.view());
            }
            let shard = from_bytes(bytes, 0, 40_000, &[]).unwrap();
            for (i, cp) in owned.iter().enumerate() {
                let (own, found) = (cp.view(), shard.postings(&Term::from(format!("t{i}"))).unwrap());
                prop_assert_eq!(found, own);
                prop_assert_eq!(to_list(found), to_list(own));
                let (mut a, mut b) = (own.cursor(), found.cursor());
                while a.current().is_some() {
                    prop_assert_eq!(a.current(), b.current());
                    prop_assert_eq!(a.current_tf(), b.current_tf());
                    a.advance();
                    b.advance();
                }
                prop_assert_eq!(b.current(), None);
                let (mut a, mut b) = (own.cursor(), found.cursor());
                let mut targets = seeks.clone();
                targets.sort_unstable();
                for target in targets {
                    prop_assert_eq!(a.seek(FileId(target)), b.seek(FileId(target)));
                    prop_assert_eq!(a.current_tf(), b.current_tf());
                    prop_assert_eq!(a.blocks_visited(), b.blocks_visited());
                }
            }
        }

        /// A list's bound byte bounds every posting's score in `f32`, under
        /// any idf — not only the one the seal's document count gives — for
        /// any frequencies and any document lengths, the bound computed
        /// as the evaluator computes it.
        #[test]
        fn list_bounds_are_admissible_under_any_idf(
            docs in proptest::collection::vec(
                (proptest::collection::vec((0usize..4, 1u32..(1 << 18)), 1..5), 0u32..5_000_000),
                1..40,
            ),
            thousandths in 1u32..30_000,
        ) {
            let idf = thousandths as f32 / 1000.0;
            let mut index = InMemoryIndex::new();
            for (file, (words, len)) in docs.iter().enumerate() {
                let mut words = words.clone();
                words.sort_unstable();
                words.dedup_by_key(|&mut (word, _)| word);
                let file = FileId(file as u32);
                let words = words.into_iter().map(|(word, tf)| (Term::from(["a", "b", "c", "d"][word]), tf));
                index.insert_file_counted(file, words);
                index.note_doc_len(file, *len);
            }
            let shard = SealedShard::from_index(&index);
            // Lengths that sum to zero leave the shard unscored: no bounds.
            prop_assume!(shard.has_scoring());
            for (term, list) in shard.iter() {
                let bound = bm25_bound(idf, list.bound()) as f32;
                for (id, tf) in to_list(list).iter_counted() {
                    let score = bm25_score(idf, tf, shard.doc_norm(id));
                    prop_assert!(score <= bound, "{term}: tf {tf}, score {score} > bound {bound}");
                }
            }
        }
    }
}
