//! Block-compressed posting lists with skip-aware cursors.
//!
//! A [`CompressedPostings`] stores a sorted, duplicate-free sequence of file
//! ids.  A list of [`SHORT_LIST_MIN`] to [`BLOCK_SIZE`] ids — most of a
//! vocabulary — is one short list, coded close to its entropy over the id
//! universe the reader knows ([`crate::interpolative`]: binary interpolative
//! coding for the ids, the tfs above 1 as sparse exceptions); any other is
//! stored in fixed [`BLOCK_SIZE`]-id blocks.  It is the *encoder's* output; every
//! reader — cursors, decoders, the query evaluator — goes through the `Copy`
//! borrowed [`CompressedView`], which a sealed shard also hands out straight
//! over its segment bytes.  A block of ids is its first id and the gaps
//! behind it (less one: ids ascend strictly) — the first id of every block
//! after a list's first itself a gap, from the last id of the block before,
//! which the skip table holds; a block of term frequencies is the
//! frequencies (less one: a frequency is at least 1).  Both go through
//! **one** codec, a patched frame of reference ([`encode`] / [`decode`]):
//!
//! ```text
//! header       1 byte: bits 0..=5 the width b (0..=32), 0x40 "a base
//!              follows", 0x80 "exceptions follow"
//! base         varint, subtracted from every value      (only when flagged)
//! packed       the low b bits of every value: ⌈n·b / 8⌉ bytes
//! exceptions   (only when flagged) for the e values that do not fit b bits,
//!              1 ≤ e ≤ 32, whose bits above b fit h bits, 1 ≤ h ≤ 8:
//!   count      1 byte: bits 0..=4 e − 1, bits 5..=7 h − 1
//!   positions  3 bits of gap width g (0..=7), then each exception's index
//!              in the block as a g-bit gap — the first its index, every
//!              later one its index less the one before less one:
//!              ⌈(3 + g·e) / 8⌉ bytes
//!   highs      each exception's bits above b, h bits:    ⌈h·e / 8⌉ bytes
//! ```
//!
//! `b` is whichever width makes the block smallest, so one outlier among 128
//! values costs its own two bytes and not a wider slot for all of them; a
//! block of equal values (a dense run, a stride, the tf = 1 ocean) is width
//! 0 — a header byte and at most a base.  Eight values of width `b` fill
//! exactly `b` bytes, so [`decode`] unpacks them eight at a time with a
//! kernel compiled for each width, in which every shift and offset is a
//! constant.  The exceptions' high parts are bit-packed as NewPFD packs them
//! (Yan, Ding & Suel, WWW 2009); their positions are gaps at the width of the
//! widest, so the many exceptions of a dense block take a bit or two each
//! where a flat position takes seven.  Every field is read with one
//! unaligned load.
//!
//! Each block carries a [`SkipEntry`] — `(last_id, byte offset)` — so a
//! reader can decide whether a block can possibly contain a target id
//! *without decoding it*.  That is what makes skewed intersections cheap:
//! [`BlockCursor::seek`] binary-searches the skip table, decodes at most one
//! block, and skips every block in between untouched.
//!
//! The [`PostingCursor`] trait abstracts "a sorted stream of ids supporting
//! `seek`, decoded a block at a time"; it is implemented both by
//! [`BlockCursor`] (decoding one block at a time into a reusable buffer) and
//! by [`SliceCursor`] (a galloping cursor over an uncompressed `&[FileId]`
//! slice — a materialised prefix union — which is one block), so the query
//! evaluator walks and filters either the same way.

use crate::doc_table::FileId;
use crate::interpolative;
use crate::varint::{checked_u32, read_lenient, varint_len, varint_len_in, write_varint};

/// Number of ids per compressed block (the classic inverted-index choice:
/// big enough to amortise the skip entry, small enough that decoding one
/// block on a seek stays cheap).
pub const BLOCK_SIZE: usize = 128;

/// Fewest ids a short list holds.  A list of fewer keeps one block of the
/// codec: its entropy is a few bits, which a short list's length byte and
/// padding outweigh, and a run of ids — common among the few documents
/// that share a rare term, say a tree's largest pages — is a header byte in
/// a block where interpolative coding spends bits on both its ends.  On
/// nine real trees, lists of up to five in one block were the smallest of
/// the floors from 0 to 16 (the benchmark's corpus has no such list).
pub const SHORT_LIST_MIN: usize = 6;

/// The bits of a block's header byte that hold its width.
const WIDTH_BITS: u8 = 0x3f;
/// Header flag: a base follows the header.
const HAS_BASE: u8 = 0x40;
/// Header flag: exceptions follow the packed values.
const HAS_EXCEPTIONS: u8 = 0x80;
/// Most exceptions a block patches: their count less one fills five bits.
const MAX_EXCEPTIONS: usize = 32;
/// Widest part of an exception above the block's width: that width less one
/// fills three bits.
const MAX_HIGH_WIDTH: usize = 8;
/// Bits the widest gap between exception positions takes: a block holds 128
/// values.
const POSITION_BITS: usize = 7;
/// Bits the gap width takes in front of the gaps.
const GAP_WIDTH_BITS: usize = 3;
/// The most bytes a block's exception positions and high parts take.
const EXCEPTION_BYTES: usize = (GAP_WIDTH_BITS + MAX_EXCEPTIONS * POSITION_BITS).div_ceil(8)
    + (MAX_EXCEPTIONS * MAX_HIGH_WIDTH).div_ceil(8);

/// Skip metadata for one block: enough to route a `seek` without decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipEntry {
    /// Last (largest) id stored in the block.
    pub last: FileId,
    /// Byte offset of the block's payload in the data buffer.
    pub offset: u32,
}

/// A sorted, duplicate-free posting list in block-compressed form, as the
/// encoder produces it.  Reading goes through [`CompressedPostings::view`].
///
/// A short list ([`SHORT_LIST_MIN`] to [`BLOCK_SIZE`] ids) is one stream in
/// `data`: its ids and, when some tf is above 1, its tfs
/// ([`crate::interpolative`]); `freqs` stays empty.  Any other list's every
/// block of `data` opens with a varint of its first id — for the list's
/// first block the id itself, for every later one its gap less one from the
/// last id of the block before — followed (when it holds more ids) by the
/// codec block of its gaps less one, so a block decodes from its own bytes
/// and the skip entry before its own.  The skip table is only materialised
/// for lists spanning more than one block: a singleton term costs one
/// varint, typically 1–3 bytes against 4 raw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompressedPostings {
    len: usize,
    /// One entry per block when there are 2+ blocks; empty otherwise.
    skips: Vec<SkipEntry>,
    data: Vec<u8>,
    /// Block-encoded per-posting term frequencies, less one.  Empty means
    /// every frequency is 1 (then `freq_offsets` is empty too).
    freqs: Vec<u8>,
    /// Byte offset of each block's frequency payload in `freqs`; one entry
    /// per block iff `freqs` is non-empty.
    freq_offsets: Vec<u32>,
    /// The list's score bound byte (`0`: none recorded); see
    /// [`CompressedView::bound`].
    bound: u8,
    /// The ids a short list is coded over lie below this.
    universe: u64,
    /// Whether a short list's stream holds tfs.
    short_tfs: bool,
}

/// Structural validation failure when a sealed shard is laid over externally
/// supplied bytes (a persisted segment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockFormatError(pub String);

impl std::fmt::Display for BlockFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid compressed postings: {}", self.0)
    }
}

impl std::error::Error for BlockFormatError {}

pub(crate) fn corrupt(what: impl Into<String>) -> BlockFormatError {
    BlockFormatError(what.into())
}

/// Whether a list of `len` postings is a short list.
pub(crate) fn is_short(len: usize) -> bool {
    (SHORT_LIST_MIN..=BLOCK_SIZE).contains(&len)
}

fn bits_needed(value: u32) -> u32 {
    32 - value.leading_zeros()
}

impl CompressedPostings {
    /// Compresses a sorted, duplicate-free slice of ids, each below
    /// `universe` — the bound a reader knows before it reads the list.
    ///
    /// The invariant is the same one [`PostingList`](crate::PostingList)
    /// maintains; it is checked in debug builds only.
    #[must_use]
    pub fn from_sorted(ids: &[FileId], universe: u64) -> Self {
        Self::from_counted(ids, &[], universe)
    }

    /// The blocks of a list that is not short.
    fn from_blocks(ids: &[FileId], universe: u64) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "compressed postings require sorted, duplicate-free ids"
        );
        let block_count = ids.len().div_ceil(BLOCK_SIZE);
        let mut skips: Vec<SkipEntry> =
            Vec::with_capacity(if block_count > 1 { block_count } else { 0 });
        let mut data = Vec::new();
        let mut gaps = [0u32; BLOCK_SIZE];
        for block in ids.chunks(BLOCK_SIZE) {
            let first = match skips.last() {
                Some(before) => block[0].as_u32() - before.last.as_u32() - 1,
                None => block[0].as_u32(),
            };
            if block_count > 1 {
                let offset = u32::try_from(data.len()).expect("posting data under 4 GiB");
                skips.push(SkipEntry { last: block[block.len() - 1], offset });
            }
            write_varint(&mut data, u64::from(first));
            let gaps = &mut gaps[..block.len() - 1];
            for (gap, pair) in gaps.iter_mut().zip(block.windows(2)) {
                *gap = pair[1].as_u32() - pair[0].as_u32() - 1;
            }
            encode(gaps, &mut data);
        }
        CompressedPostings {
            len: ids.len(),
            skips,
            data,
            freqs: Vec::new(),
            freq_offsets: Vec::new(),
            bound: 0,
            universe,
            short_tfs: false,
        }
    }

    /// Compresses a sorted id slice, each below `universe`, together with
    /// its per-posting term frequencies.  `tfs` must be parallel to `ids` or
    /// empty; an all-1 frequency vector is not materialised (the canonical
    /// empty form).
    #[must_use]
    pub fn from_counted(ids: &[FileId], tfs: &[u32], universe: u64) -> Self {
        debug_assert!(tfs.is_empty() || tfs.len() == ids.len());
        let tracked = tfs.iter().any(|&tf| tf > 1);
        if is_short(ids.len()) {
            let mut data = Vec::new();
            interpolative::encode(ids, if tracked { tfs } else { &[] }, universe, &mut data);
            return CompressedPostings {
                len: ids.len(),
                data,
                universe,
                short_tfs: tracked,
                ..CompressedPostings::default()
            };
        }
        let mut cp = CompressedPostings::from_blocks(ids, universe);
        if !tracked {
            return cp;
        }
        let mut above_one = [0u32; BLOCK_SIZE];
        for block in tfs.chunks(BLOCK_SIZE) {
            cp.freq_offsets.push(u32::try_from(cp.freqs.len()).expect("freq data under 4 GiB"));
            let above_one = &mut above_one[..block.len()];
            above_one.iter_mut().zip(block).for_each(|(slot, &tf)| *slot = tf.saturating_sub(1));
            encode(above_one, &mut cp.freqs);
        }
        cp
    }

    /// Records the list's score bound byte (see [`CompressedView::bound`]).
    pub(crate) fn set_bound(&mut self, bound: u8) {
        self.bound = bound;
    }

    /// The borrowed form every reader takes.
    #[must_use]
    pub fn view(&self) -> CompressedView<'_> {
        CompressedView {
            len: self.len,
            skips: &self.skips,
            data: &self.data,
            freqs: if self.short_tfs { &self.data } else { &self.freqs },
            freq_offsets: &self.freq_offsets,
            bound: self.bound,
            universe: self.universe,
        }
    }
}

/// A block-compressed posting list, borrowed: the parts of a
/// [`CompressedPostings`], or the same parts found in place in a sealed
/// shard's segment bytes.  `Copy`, so cursors carry it by value.
///
/// A short list's `data` is its stream, and its `freqs` the same stream
/// when that holds tfs (empty otherwise); it has no skip entries and no
/// frequency offsets.
///
/// Decoding is defensive — a payload that ends early or a table that is too
/// short yields zeros or an exhausted cursor, never a panic — so a view over
/// hostile bytes that passed the shard's structural validation is safe to
/// evaluate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompressedView<'a> {
    pub(crate) len: usize,
    pub(crate) skips: &'a [SkipEntry],
    pub(crate) data: &'a [u8],
    pub(crate) freqs: &'a [u8],
    pub(crate) freq_offsets: &'a [u32],
    pub(crate) bound: u8,
    pub(crate) universe: u64,
}

impl<'a> CompressedView<'a> {
    /// Number of ids stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no ids are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The skip table (one entry per block when there are 2+ blocks).
    #[must_use]
    pub fn skips(&self) -> &'a [SkipEntry] {
        self.skips
    }

    /// The concatenated encoded block payloads; a short list's stream.
    #[must_use]
    pub fn data(&self) -> &'a [u8] {
        self.data
    }

    /// The encoded per-posting frequency payload (empty ⇒ every tf is 1); a
    /// short list's stream, when it holds tfs.
    #[must_use]
    pub fn freqs(&self) -> &'a [u8] {
        self.freqs
    }

    /// Whether the list is short — [`SHORT_LIST_MIN`] to [`BLOCK_SIZE`] ids,
    /// coded as one stream ([`crate::interpolative`]) rather than in blocks.
    #[must_use]
    pub fn is_short(&self) -> bool {
        is_short(self.len)
    }

    /// The bound every id of the list lies below, which a short list is
    /// coded over.
    #[must_use]
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Byte offsets of the per-block frequency payloads.
    #[must_use]
    pub fn freq_offsets(&self) -> &'a [u32] {
        self.freq_offsets
    }

    /// The list's score bound byte: `⌈255 · s⌉` for the largest saturation
    /// `s = tf / (tf + norm)` among its postings, so that `idf · (1 + k1) ·
    /// bound / 255` bounds every posting's BM25 score whatever the idf
    /// ([`bm25_bound`](crate::bm25_bound)).  `0` when none was recorded (a
    /// shard without document lengths).
    #[must_use]
    pub fn bound(&self) -> u8 {
        self.bound
    }

    /// Bytes this list occupies: payload plus skip table (8 bytes per
    /// block).  Compare with `len() * 4` for the raw `Vec<FileId>` form.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.data.len() + std::mem::size_of_val(self.skips)
    }

    /// A skip-aware cursor positioned on the first id.
    #[must_use]
    pub fn cursor(self) -> BlockCursor<'a> {
        BlockCursor::new(self)
    }

    /// Number of blocks the ids span.
    fn block_count(&self) -> usize {
        self.len.div_ceil(BLOCK_SIZE)
    }

    /// Number of ids in block `index` (every block is full except the last).
    fn block_len(&self, index: usize) -> usize {
        if index + 1 < self.block_count() {
            BLOCK_SIZE
        } else {
            self.len - index * BLOCK_SIZE
        }
    }

    /// Byte offset of block `index` in the payload.
    fn block_offset(&self, index: usize) -> usize {
        self.skips.get(index).map_or(0, |skip| skip.offset as usize)
    }

    /// Decodes the ids of block `index` into `out[..count]`, returning
    /// `count`; `gaps` is where the codec unpacks the gaps to.
    fn block_ids(
        &self,
        index: usize,
        gaps: &mut [u32; BLOCK_SIZE],
        out: &mut [FileId; BLOCK_SIZE],
    ) -> usize {
        let count = self.block_len(index);
        let mut pos = self.block_offset(index);
        let first = u64::from(read_lenient(self.data, &mut pos));
        let gaps = &mut gaps[..count - 1];
        decode(self.data.get(pos..).unwrap_or(&[]), gaps);
        // Summed in 64 bits, where the block before's last id and 128 gaps
        // cannot overflow, and clamped off the chain of additions: hostile
        // gaps saturate, honest ones pay one add each.
        let mut id = match index.checked_sub(1).and_then(|before| self.skips.get(before)) {
            Some(before) => u64::from(before.last.as_u32()) + first + 1,
            None => first,
        };
        out[0] = FileId(id.min(u64::from(u32::MAX)) as u32);
        for (slot, &gap) in out[1..count].iter_mut().zip(gaps.iter()) {
            id += u64::from(gap) + 1;
            *slot = FileId(id.min(u64::from(u32::MAX)) as u32);
        }
        count
    }

    /// Decodes the whole list into `out` (cleared first): one pass, no
    /// intermediate allocation.
    pub fn decode_into(&self, out: &mut Vec<FileId>) {
        out.clear();
        self.decode_append(out);
    }

    /// Decodes the whole list onto the end of `out`.
    pub fn decode_append(&self, out: &mut Vec<FileId>) {
        if self.is_short() {
            let start = out.len();
            out.resize(start + self.len, FileId(0));
            interpolative::decode_ids(self.data, self.universe, &mut out[start..]);
            return;
        }
        out.reserve(self.len);
        let (mut gaps, mut ids) = ([0u32; BLOCK_SIZE], [FileId(0); BLOCK_SIZE]);
        for index in 0..self.block_count() {
            let count = self.block_ids(index, &mut gaps, &mut ids);
            out.extend_from_slice(&ids[..count]);
        }
    }

    /// Decodes a short list's ids into `out[..len]`; returns the bit its
    /// tfs start at.
    fn short_ids(&self, out: &mut [FileId; BLOCK_SIZE]) -> usize {
        interpolative::decode_ids(self.data, self.universe, &mut out[..self.len])
    }

    /// Decodes a short list's tfs, which start at bit `from` of its stream,
    /// into `out` (its length); every one 1 for a list that stores none.
    fn short_tfs(&self, from: usize, out: &mut [u32]) {
        if self.freqs.is_empty() {
            out.fill(1);
        } else {
            interpolative::decode_tfs(self.freqs, from, out);
        }
    }

    /// Decodes the frequencies of block `index` into `out[..count]`,
    /// returning `count`.  `out` must hold at least that many slots.
    /// Untracked lists fill with 1.
    fn block_tfs(&self, index: usize, out: &mut [u32]) -> usize {
        let count = self.block_len(index);
        let out = &mut out[..count];
        match self.freq_offsets.get(index) {
            Some(&offset) => {
                decode(self.freqs.get(offset as usize..).unwrap_or(&[]), out);
                out.iter_mut().for_each(|tf| *tf = tf.saturating_add(1));
            }
            None => out.fill(1),
        }
        count
    }

    /// The bytes the exception sections of the list's id blocks and of its
    /// tf blocks take (the rest of each block is its first id, header, base
    /// and packed values): where the census of a store splits its blocks.
    /// None for a short list.
    #[must_use]
    pub fn exception_bytes(&self) -> (usize, usize) {
        if self.is_short() {
            return (0, 0);
        }
        let (mut ids, mut tfs) = (0, 0);
        for index in 0..self.block_count() {
            let count = self.block_len(index);
            let mut at = self.block_offset(index);
            read_lenient(self.data, &mut at);
            if count > 1 {
                ids += exception_bytes(self.data, at, count - 1);
            }
            if let Some(&offset) = self.freq_offsets.get(index) {
                tfs += exception_bytes(self.freqs, offset as usize, count);
            }
        }
        (ids, tfs)
    }

    /// How a short list's stream splits between its ids and its tfs: the
    /// bytes up to the one its ids end in, and the rest.  `None` for a list
    /// in blocks.
    pub(crate) fn short_split(&self) -> Option<(usize, usize)> {
        if !self.is_short() {
            return None;
        }
        if self.freqs.is_empty() {
            return Some((self.data.len(), 0));
        }
        let ids = self.short_ids(&mut [FileId(0); BLOCK_SIZE]).div_ceil(8).min(self.data.len());
        Some((ids, self.data.len() - ids))
    }

    /// Decodes every per-posting frequency into `out` (cleared first),
    /// parallel to [`CompressedView::decode_into`]'s ids.
    pub fn decode_freqs_into(&self, out: &mut Vec<u32>) {
        out.clear();
        if self.freqs.is_empty() {
            return;
        }
        out.reserve(self.len);
        let mut scratch = [0u32; BLOCK_SIZE];
        if self.is_short() {
            let from = self.short_ids(&mut [FileId(0); BLOCK_SIZE]);
            self.short_tfs(from, &mut scratch[..self.len]);
            out.extend_from_slice(&scratch[..self.len]);
            return;
        }
        for index in 0..self.block_count() {
            let count = self.block_tfs(index, &mut scratch);
            out.extend_from_slice(&scratch[..count]);
        }
    }
}

/// How [`encode`] lays out one block: its `width`, the `high` width of its
/// exceptions' bits above it, how many `exceptions` there are, the width of
/// the `gaps` between their positions, and the `bytes` the packed and
/// exception sections take.
#[derive(Debug, Clone, Copy)]
struct Layout {
    width: usize,
    high: usize,
    exceptions: usize,
    gaps: usize,
    bytes: usize,
}

/// The bytes of an exception section: the count byte, `exceptions` gaps of
/// `gaps` bits behind the gap width, and as many high parts of `high` bits.
fn exception_section(exceptions: usize, gaps: usize, high: usize) -> usize {
    1 + (GAP_WIDTH_BITS + exceptions * gaps).div_ceil(8) + (exceptions * high).div_ceil(8)
}

/// The layout in which `values`, each less `base`, encode smallest.  With
/// the width `b` below the longest value's `L` bits, the values longer than
/// `b` are exceptions: a count byte, a gap of position each and `L − b` bits
/// of high part each.  A width that leaves more than 32 of them or high
/// parts wider than 8 bits is no candidate; `L` itself, with none, always
/// is.  From a histogram of bit lengths, summed from the top, a width's
/// packed values and exception count are a lookup; its gaps come from the
/// positions of the at most 32 values longer than the narrowest candidate,
/// found in a second pass.  Two passes over the block, whatever the widths.
fn cheapest_width(values: &[u32], base: u32) -> Layout {
    // `longer[w]`: how many values need more than `w` bits (none past 32).
    // Counted in four tables, one value in four each: neighbours are mostly
    // of one length, and a counter bumped again before its last store has
    // landed stalls the loop.
    let mut lengths = [[0u8; 33]; 4];
    for (i, &value) in values.iter().enumerate() {
        lengths[i % 4][bits_needed(value - base) as usize] += 1;
    }
    let mut longer: [usize; 33] =
        std::array::from_fn(|bits| lengths.iter().map(|table| usize::from(table[bits])).sum());
    let longest = (0..=32).rev().find(|&bits| longer[bits] > 0).unwrap_or(0);
    let mut above = 0;
    for bits in (0..=longest).rev() {
        above += std::mem::replace(&mut longer[bits], above);
    }
    let packed = |width: usize| (values.len() * width).div_ceil(8);
    let mut best =
        Layout { width: longest, high: 0, exceptions: 0, gaps: 0, bytes: packed(longest) };
    // Narrower widths only leave more exceptions, so the candidates are the
    // widths from the narrowest that leaves at most 32 up to `L`.
    let candidates = longest.saturating_sub(MAX_HIGH_WIDTH)..longest;
    let Some(narrowest) = candidates.clone().find(|&width| longer[width] <= MAX_EXCEPTIONS) else {
        return best;
    };
    // Priced with gaps of no bits, a width that does not beat `L` never
    // will: most blocks have no candidate worth finding the gaps of.
    let floor = |width: usize| packed(width) + exception_section(longer[width], 0, longest - width);
    if (narrowest..longest).all(|width| floor(width) >= best.bytes) {
        return best;
    }
    // Where the values longer than the narrowest candidate stand, and how
    // long they are: every candidate's exceptions are among them.  Each
    // value is written to the next free slot, which only an outlier takes:
    // no branch on where the outliers fall.
    let mut outliers = [(0u8, 0u8); MAX_EXCEPTIONS + 1];
    let mut found = 0;
    for (position, &value) in values.iter().enumerate() {
        let bits = bits_needed(value - base) as u8;
        outliers[found] = (position as u8, bits);
        found += usize::from(usize::from(bits) > narrowest);
    }
    for width in (narrowest..longest).rev() {
        let (exceptions, high) = (longer[width], longest - width);
        if floor(width) >= best.bytes {
            continue;
        }
        // The gaps, ORed: the widest one's bit length is the OR's.
        let (mut next, mut widest) = (0, 0);
        for &(position, bits) in &outliers[..found] {
            let gap = if usize::from(bits) > width { position - next } else { 0 };
            widest |= gap;
            next = if gap > 0 || usize::from(bits) > width { position + 1 } else { next };
        }
        let gaps = bits_needed(u32::from(widest)) as usize;
        let bytes = packed(width) + exception_section(exceptions, gaps, high);
        if bytes < best.bytes {
            best = Layout { width, high, exceptions, gaps, bytes };
        }
    }
    best
}

/// Appends the low `width` bits of every value, packed: values enter a u64
/// accumulator `width` bits at a time, lowest bits first, and leave it as
/// whole bytes — ⌈n·width / 8⌉ of them.
fn pack(width: usize, values: impl Iterator<Item = u32>, out: &mut Vec<u8>) {
    pack_behind(0, 0, width, values, out);
}

/// [`pack`] behind a `lead` of `lead_bits` bits (at most 32), which the
/// values follow in the same bytes.
fn pack_behind(
    lead: u64,
    lead_bits: usize,
    width: usize,
    values: impl Iterator<Item = u32>,
    out: &mut Vec<u8>,
) {
    let mask = (1u64 << width) - 1;
    let mut acc = lead;
    let mut acc_bits = lead_bits;
    for value in values {
        acc |= (u64::from(value) & mask) << acc_bits;
        acc_bits += width;
        if acc_bits >= 32 {
            out.extend_from_slice(&(acc as u32).to_le_bytes());
            acc >>= 32;
            acc_bits -= 32;
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..acc_bits.div_ceil(8)]);
}

/// Appends `values` (at most [`BLOCK_SIZE`] of them; none writes nothing) as
/// one block of the codec the module documentation lays out.
pub fn encode(values: &[u32], out: &mut Vec<u8>) {
    debug_assert!(values.len() <= BLOCK_SIZE, "positions take seven bits");
    let Some(&least) = values.iter().min() else { return };
    let (mut base, mut layout) = (0, cheapest_width(values, 0));
    if least > 0 {
        let rebased = cheapest_width(values, least);
        if rebased.bytes + varint_len(least) < layout.bytes {
            (base, layout) = (least, rebased);
        }
    }
    let Layout { width, high, exceptions, gaps, .. } = layout;
    let flags =
        if base > 0 { HAS_BASE } else { 0 } | if exceptions > 0 { HAS_EXCEPTIONS } else { 0 };
    out.push(width as u8 | flags);
    if base > 0 {
        write_varint(out, u64::from(base));
    }
    pack(width, values.iter().map(|&value| value - base), out);
    if exceptions > 0 {
        // An exception's bits above the width are all it needs: `width` is
        // below 32 whenever there is one.
        let (mut gap, mut highs) = ([0u32; MAX_EXCEPTIONS], [0u32; MAX_EXCEPTIONS]);
        let patched = values.iter().map(|&value| (value - base) >> width);
        let found = patched.enumerate().filter(|&(_, high)| high > 0);
        let mut next = 0;
        for (slot, (position, high)) in found.enumerate() {
            (gap[slot], highs[slot]) = ((position - next) as u32, high);
            next = position + 1;
        }
        out.push((exceptions - 1) as u8 | ((high - 1) as u8) << 5);
        pack_behind(gaps as u64, GAP_WIDTH_BITS, gaps, gap[..exceptions].iter().copied(), out);
        pack(high, highs[..exceptions].iter().copied(), out);
    }
}

/// Decodes the block that opens `block` into `out`, whose length is the
/// block's value count (none reads nothing).  Lenient: whatever the bytes,
/// `out` is filled and nothing panics — a payload that ends early reads as
/// zeros, an exception whose position lies outside the block is dropped, bits
/// beyond 32 are lost.
pub fn decode(block: &[u8], out: &mut [u32]) {
    if out.is_empty() {
        return;
    }
    let header = block.first().copied().unwrap_or(0);
    let mut pos = 1;
    let width = encoded_width(block);
    let base = if header & HAS_BASE != 0 { read_lenient(block, &mut pos) } else { 0 };
    if width == 0 {
        out.fill(0);
    } else {
        unpack(width, block.get(pos..).unwrap_or(&[]), out);
        pos += (out.len() * width).div_ceil(8);
    }
    if header & HAS_EXCEPTIONS != 0 {
        let count = block.get(pos).copied().unwrap_or(0);
        let exceptions = usize::from(count & 0x1f) + 1;
        let high = usize::from(count >> 5) + 1;
        // The positions and the high parts, with eight bytes behind the most
        // they take, so every field is one unaligned load: read in place, or
        // from a zero-padded copy where the payload ends sooner.
        let section = block.get(pos + 1..).unwrap_or(&[]);
        let padded: [u8; EXCEPTION_BYTES + 8];
        let fields = match section.first_chunk() {
            Some(fields) => fields,
            None => {
                let mut copy = [0u8; EXCEPTION_BYTES + 8];
                copy[..section.len()].copy_from_slice(section);
                padded = copy;
                &padded
            }
        };
        let gaps = field(fields, 0, GAP_WIDTH_BITS) as usize;
        let highs_at = (GAP_WIDTH_BITS + exceptions * gaps).div_ceil(8) * 8;
        let mut position = 0;
        for k in 0..exceptions {
            position += field(fields, GAP_WIDTH_BITS + k * gaps, gaps) as usize;
            let patch = field(fields, highs_at + k * high, high);
            if let Some(slot) = out.get_mut(position) {
                *slot |= patch.checked_shl(width as u32).unwrap_or(0);
            }
            position += 1;
        }
    }
    if base > 0 {
        out.iter_mut().for_each(|value| *value = value.wrapping_add(base));
    }
}

/// Where the codec block of `count` values (at most [`BLOCK_SIZE`]) that
/// starts at `bytes[at]` ends.  A block says its own length — width, base,
/// exception count, high width and gap width — so blocks lie back to back
/// with no offsets between them, and finding where one ends checks its
/// structure: `None` for a width above 32, a base past `u32`, or a block
/// that runs past the bytes.  (Gaps that lead past the block are not looked
/// at here: [`decode`] drops those exceptions.)
#[inline(always)]
pub(crate) fn block_end(bytes: &[u8], at: usize, count: usize) -> Option<usize> {
    let &header = bytes.get(at)?;
    let width = usize::from(header & WIDTH_BITS);
    let has_base = header & HAS_BASE != 0;
    // The flags are what a block walk cannot predict, so they weigh lengths
    // rather than choose paths: the base's length is read off the
    // continuation bits of the eight bytes behind the header, when they are
    // there and it is short enough to fit `u32` whatever its bits.
    let base = match bytes.get(at + 1..at + 9) {
        Some(window) => {
            let len = varint_len_in(u64::from_le_bytes(window.try_into().expect("eight bytes")));
            if has_base & (len > 4) {
                checked_u32(bytes, &mut (at + 1))?;
            }
            len * usize::from(has_base)
        }
        None if has_base => {
            let mut end = at + 1;
            checked_u32(bytes, &mut end)?;
            end - at - 1
        }
        None => 0,
    };
    let mut end = at + 1 + base + (count * width).div_ceil(8);
    let packed = bytes.get(end).copied().unwrap_or(0);
    let (exceptions, high) = (usize::from(packed & 0x1f) + 1, usize::from(packed >> 5) + 1);
    let gaps = usize::from(bytes.get(end + 1).copied().unwrap_or(0)) & ((1 << GAP_WIDTH_BITS) - 1);
    end += exception_section(exceptions, gaps, high) * usize::from(header & HAS_EXCEPTIONS != 0);
    (width <= 32 && end <= bytes.len()).then_some(end)
}

/// The bytes the exception section of the codec block of `count` values at
/// `bytes[at]` takes (none without exceptions): the part of the block that
/// is not its header, base and packed values.  For a block [`block_end`]
/// finds whole.
fn exception_bytes(bytes: &[u8], at: usize, count: usize) -> usize {
    let header = bytes.get(at).copied().unwrap_or(0);
    if header & HAS_EXCEPTIONS == 0 {
        return 0;
    }
    let mut packed_at = at + 1;
    if header & HAS_BASE != 0 {
        read_lenient(bytes, &mut packed_at);
    }
    packed_at += (count * encoded_width(&bytes[at..])).div_ceil(8);
    block_end(bytes, at, count).map_or(0, |end| end.saturating_sub(packed_at))
}

/// The `bits` (at most 8) from bit `at` of `fields` on, which holds eight
/// bytes past the last it is asked for.
fn field(fields: &[u8; EXCEPTION_BYTES + 8], at: usize, bits: usize) -> u32 {
    let word = u64::from_le_bytes(fields[at / 8..at / 8 + 8].try_into().expect("eight bytes"));
    ((word >> (at % 8)) & ((1 << bits) - 1)) as u32
}

/// The width, in bits, of the values of the block that opens `block`: what
/// [`decode`] unpacks them with.
#[must_use]
pub fn encoded_width(block: &[u8]) -> usize {
    usize::from(block.first().copied().unwrap_or(0) & WIDTH_BITS).min(32)
}

/// Unpacks `out.len()` values of `width` (1..=32) bits each from the front
/// of `packed`, eight at a time, with a kernel compiled for that width.  A
/// step reads the `width` bytes its eight values fill and the eight bytes
/// after them; a payload shorter than its last step needs is unpacked from a
/// zero-padded copy, so one that ends early reads as zeros.
fn unpack(width: usize, packed: &[u8], out: &mut [u32]) {
    let span = out.len().div_ceil(8) * width + 8;
    if packed.len() >= span {
        unpack_by_width(width, packed, out);
    } else {
        let mut padded = [0u8; BLOCK_SIZE * 4 + 8];
        let kept = packed.len().min(span);
        padded[..kept].copy_from_slice(&packed[..kept]);
        unpack_by_width(width, &padded[..span], out);
    }
}

/// [`unpack_width`] for a width known at run time only.
fn unpack_by_width(width: usize, packed: &[u8], out: &mut [u32]) {
    macro_rules! dispatch {
        ($($w:literal)*) => {
            match width {
                $($w => unpack_width::<$w>(packed, out),)*
                _ => unpack_width::<32>(packed, out),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31);
}

/// The unpacking kernel of width `W`: eight values take exactly `W` bytes,
/// so the `k`-th group of eight starts at byte `k · W`, and every shift and
/// offset inside a group is a constant.  `packed` holds at least
/// `⌈out.len() / 8⌉ · W + 8` bytes ([`unpack`] sees to it).
fn unpack_width<const W: usize>(packed: &[u8], out: &mut [u32]) {
    let mut groups = out.chunks_exact_mut(8);
    let mut at = 0;
    for group in &mut groups {
        unpack8::<W>(&packed[at..at + W + 8], group.try_into().expect("a group of eight"));
        at += W;
    }
    let rest = groups.into_remainder();
    if !rest.is_empty() {
        let mut last = [0u32; 8];
        unpack8::<W>(&packed[at..at + W + 8], &mut last);
        rest.copy_from_slice(&last[..rest.len()]);
    }
}

/// Eight values of `W` bits from `bytes` (`W + 8` of them): value `j` starts
/// in byte `j · W / 8` and ends at most 39 bits later, inside the eight bytes
/// from there on.
#[inline(always)]
fn unpack8<const W: usize>(bytes: &[u8], out: &mut [u32; 8]) {
    let mask = (1u64 << W) - 1;
    for (j, slot) in out.iter_mut().enumerate() {
        let bit = j * W;
        let word = u64::from_le_bytes(bytes[bit / 8..bit / 8 + 8].try_into().expect("eight bytes"));
        *slot = ((word >> (bit % 8)) & mask) as u32;
    }
}

/// A sorted stream of file ids supporting forward `seek` — the abstraction
/// the query evaluator's set operations are written against.
///
/// Invariants: ids come out strictly ascending; `seek` and `advance` never
/// move backwards; after `None` the cursor stays exhausted.
pub trait PostingCursor {
    /// The id the cursor is positioned on, or `None` when exhausted.
    fn current(&self) -> Option<FileId>;

    /// Moves to the next id.
    fn advance(&mut self);

    /// Moves to the first id `>= target` (a no-op when already there) and
    /// returns it, or `None` when every remaining id is smaller.
    fn seek(&mut self, target: FileId) -> Option<FileId>;

    /// Total ids in the underlying list (used to pick intersection drivers).
    fn len(&self) -> usize;

    /// The ids from the current one to the end of the cursor's current block
    /// — what it holds decoded — in order; empty once exhausted.
    fn block(&self) -> &[FileId];

    /// Moves `n` ids on within the current block (`n <= block().len()`); a
    /// cursor moved past its block's last id enters the next block.
    fn advance_by(&mut self, n: usize);

    /// Returns `true` when the underlying list is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`PostingCursor`] over an uncompressed sorted slice; `seek` gallops
/// (exponential probe + binary search) from the current position.
#[derive(Debug, Clone)]
pub struct SliceCursor<'a> {
    ids: &'a [FileId],
    pos: usize,
}

impl<'a> SliceCursor<'a> {
    /// Wraps a sorted, duplicate-free slice.
    #[must_use]
    pub fn new(ids: &'a [FileId]) -> Self {
        SliceCursor { ids, pos: 0 }
    }
}

impl PostingCursor for SliceCursor<'_> {
    fn current(&self) -> Option<FileId> {
        self.ids.get(self.pos).copied()
    }

    fn advance(&mut self) {
        self.pos += 1;
    }

    fn seek(&mut self, target: FileId) -> Option<FileId> {
        let current = self.current()?;
        if current >= target {
            return Some(current);
        }
        // Exponential probe from the current position, then binary search
        // the bracketed window — the same gallop the skip-table seek uses.
        let mut offset = 1usize;
        while self.pos + offset < self.ids.len() && self.ids[self.pos + offset] < target {
            offset <<= 1;
        }
        let lo = self.pos + (offset >> 1);
        let hi = (self.pos + offset + 1).min(self.ids.len());
        self.pos = lo + self.ids[lo..hi].partition_point(|&id| id < target);
        self.current()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// The rest of the slice: a slice is one block.
    fn block(&self) -> &[FileId] {
        self.ids.get(self.pos..).unwrap_or(&[])
    }

    fn advance_by(&mut self, n: usize) {
        self.pos += n;
    }
}

/// A [`PostingCursor`] over a [`CompressedView`].  `seek` routes
/// through the skip table, so blocks between the current position and the
/// target are never touched; the blocks it enters decode one at a time into
/// a block-sized buffer of the cursor's own, so opening one allocates
/// nothing.  [`PostingCursor::block`] hands out the rest of the decoded
/// block, and [`BlockCursor::block_tfs`] its frequencies beside it.
#[derive(Debug, Clone)]
pub struct BlockCursor<'a> {
    postings: CompressedView<'a>,
    /// Blocks the list spans.
    blocks: usize,
    /// Index of the current block; `== blocks` when exhausted.
    block: usize,
    /// Position within the current block.
    pos: usize,
    /// Ids in the current block (0 when exhausted).
    len_in_block: usize,
    /// The current block's ids, reused across every block the cursor visits.
    ids: [FileId; BLOCK_SIZE],
    /// The current block's frequencies, decoded only for blocks whose
    /// frequencies are actually read; until then, where the codec unpacks
    /// the id gaps to.
    tfs: [u32; BLOCK_SIZE],
    /// Whether `tfs` holds the current block's frequencies.
    tfs_loaded: bool,
    /// The bit a short list's tfs start at in its stream.
    tfs_at: usize,
    /// Blocks this cursor has entered (and decoded);
    /// `blocks - blocks_visited()` is the number the skip table let
    /// it jump over entirely.
    visited: u64,
}

impl<'a> BlockCursor<'a> {
    /// Creates a cursor positioned on the first id.
    #[must_use]
    pub fn new(postings: CompressedView<'a>) -> Self {
        let mut cursor = BlockCursor {
            postings,
            blocks: postings.block_count(),
            block: 0,
            pos: 0,
            len_in_block: 0,
            ids: [FileId(0); BLOCK_SIZE],
            tfs: [0; BLOCK_SIZE],
            tfs_loaded: false,
            tfs_at: 0,
            visited: 0,
        };
        cursor.enter_block(0);
        cursor
    }

    fn exhausted(&self) -> bool {
        self.block >= self.blocks
    }

    fn enter_block(&mut self, block: usize) {
        self.block = block;
        self.pos = 0;
        self.tfs_loaded = false;
        if block >= self.blocks {
            self.len_in_block = 0;
            return;
        }
        self.visited += 1;
        if self.postings.is_short() {
            self.len_in_block = self.postings.len;
            self.tfs_at = self.postings.short_ids(&mut self.ids);
        } else {
            self.len_in_block = self.postings.block_ids(block, &mut self.tfs, &mut self.ids);
        }
    }

    fn load_tfs(&mut self) {
        if !self.tfs_loaded {
            if self.postings.is_short() {
                self.postings.short_tfs(self.tfs_at, &mut self.tfs[..self.len_in_block]);
            } else {
                self.postings.block_tfs(self.block, &mut self.tfs);
            }
            self.tfs_loaded = true;
        }
    }

    /// The term frequency of the posting the cursor is on (1 when the list
    /// does not track frequencies).  Decodes the current block's frequency
    /// payload on first access; blocks the skip table jumps over never pay.
    #[must_use]
    pub fn current_tf(&mut self) -> u32 {
        // An exhausted cursor has no block: `len_in_block` is zero.
        if self.pos >= self.len_in_block || self.postings.freqs.is_empty() {
            return 1;
        }
        self.load_tfs();
        self.tfs[self.pos]
    }

    /// [`PostingCursor::block`] and, beside each id, its term frequency
    /// (decoded on first use, as by [`BlockCursor::current_tf`]).
    #[must_use]
    pub fn block_tfs(&mut self) -> (&[FileId], &[u32]) {
        if self.pos < self.len_in_block {
            self.load_tfs();
        }
        let rest = self.pos..self.len_in_block;
        (&self.ids[rest.clone()], &self.tfs[rest])
    }

    /// Blocks this cursor actually entered so far.
    #[must_use]
    pub fn blocks_visited(&self) -> u64 {
        self.visited
    }

    /// Total blocks in the underlying list.
    #[must_use]
    pub fn total_blocks(&self) -> usize {
        self.blocks
    }

    fn block_last(&self) -> FileId {
        self.ids[self.len_in_block - 1]
    }
}

impl PostingCursor for BlockCursor<'_> {
    fn current(&self) -> Option<FileId> {
        (self.pos < self.len_in_block).then(|| self.ids[self.pos])
    }

    fn advance(&mut self) {
        self.advance_by(1);
    }

    fn seek(&mut self, target: FileId) -> Option<FileId> {
        let current = self.current()?;
        if current >= target {
            return Some(current);
        }
        if self.block_last() < target {
            // The whole current block is behind the target.  Gallop the skip
            // table forward from the current block (seeks usually land a few
            // blocks ahead, so an exponential probe beats a full binary
            // search of the table), touching nothing in between (a skip-less
            // list is one block, so it is simply exhausted).
            let skips = self.postings.skips;
            let next = if skips.is_empty() {
                1
            } else {
                let rest = &skips[self.block + 1..];
                let mut offset = 1usize;
                while offset < rest.len() && rest[offset].last < target {
                    offset <<= 1;
                }
                let lo = offset >> 1;
                let hi = (offset + 1).min(rest.len());
                self.block + 1 + lo + rest[lo..hi].partition_point(|skip| skip.last < target)
            };
            self.enter_block(next);
            if self.exhausted() {
                return None;
            }
            if self.block_last() < target {
                // Only possible when a (corrupt) skip table lies about a
                // block's last id; exhaust instead of asserting.
                self.enter_block(self.blocks);
                return None;
            }
        }
        // Gallop within the block too: most seeks of a merge land a few ids
        // on, where a binary search of the rest of the block is mostly wasted
        // probes.
        let ids = &self.ids[..self.len_in_block];
        let mut offset = 1usize;
        while self.pos + offset < ids.len() && ids[self.pos + offset] < target {
            offset <<= 1;
        }
        let lo = self.pos + (offset >> 1);
        let hi = (self.pos + offset + 1).min(ids.len());
        self.pos = lo + ids[lo..hi].partition_point(|&id| id < target);
        debug_assert!(self.pos < self.len_in_block, "skip table guaranteed containment");
        self.current()
    }

    fn len(&self) -> usize {
        self.postings.len
    }

    fn block(&self) -> &[FileId] {
        &self.ids[self.pos..self.len_in_block]
    }

    fn advance_by(&mut self, n: usize) {
        if self.exhausted() {
            return;
        }
        self.pos += n;
        if self.pos >= self.len_in_block {
            self.enter_block(self.block + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posting::PostingList;
    use proptest::prelude::*;

    fn ids(v: &[u32]) -> Vec<FileId> {
        v.iter().map(|&i| FileId(i)).collect()
    }

    /// The list decoded into an owned [`PostingList`], frequencies included.
    fn to_list(view: CompressedView<'_>) -> PostingList {
        let (mut ids, mut tfs) = (Vec::new(), Vec::new());
        view.decode_into(&mut ids);
        view.decode_freqs_into(&mut tfs);
        tfs.resize(ids.len(), 1);
        ids.into_iter().zip(tfs).collect()
    }

    /// The universe of `ids`: one past the last.
    fn universe_of(ids: &[FileId]) -> u64 {
        ids.last().map_or(0, |last| u64::from(last.as_u32()) + 1)
    }

    fn compress(ids: &[FileId]) -> CompressedPostings {
        CompressedPostings::from_sorted(ids, universe_of(ids))
    }

    fn compress_counted(ids: &[FileId], tfs: &[u32]) -> CompressedPostings {
        CompressedPostings::from_counted(ids, tfs, universe_of(ids))
    }

    fn ids_of(cp: &CompressedPostings) -> Vec<FileId> {
        let mut out = Vec::new();
        cp.view().decode_into(&mut out);
        out
    }

    #[test]
    fn empty_list_compresses_to_nothing() {
        let cp = compress(&[]);
        assert!(cp.view().is_empty());
        assert_eq!(cp.view().len(), 0);
        assert_eq!(cp.view().byte_size(), 0);
        assert!(ids_of(&cp).is_empty());
        let mut cursor = cp.view().cursor();
        assert_eq!(cursor.current(), None);
        assert_eq!(cursor.seek(FileId(0)), None);
        cursor.advance();
        assert_eq!(cursor.current(), None);
    }

    #[test]
    fn dense_runs_bitpack_below_one_byte_per_id() {
        let dense: Vec<FileId> = (0..10_000).map(FileId).collect();
        let cp = compress(&dense);
        assert_eq!(ids_of(&cp), dense);
        // Consecutive ids pack at 1 bit each plus skip/header overhead.
        assert!(
            cp.view().byte_size() * 2 < dense.len(),
            "dense run should beat 0.5 bytes/id, got {} bytes for {} ids",
            cp.view().byte_size(),
            dense.len()
        );
    }

    #[test]
    fn sparse_lists_stay_far_below_the_raw_form() {
        let sparse: Vec<FileId> = (0..500).map(|i| FileId(i * 100_003)).collect();
        let cp = compress(&sparse);
        assert_eq!(ids_of(&cp), sparse);
        // A constant stride is a base and nothing else; an irregular one
        // still packs at the width of its gaps, 17 bits against 32 raw.
        assert!(cp.view().data().len() < 40, "{} bytes", cp.view().data().len());
        let jittered: Vec<FileId> = (0..500).map(|i| FileId(i * 100_003 + i % 7)).collect();
        let cp = compress(&jittered);
        assert_eq!(ids_of(&cp), jittered);
        assert!(cp.view().byte_size() * 8 < jittered.len() * 20);
    }

    #[test]
    fn one_outlier_is_patched_not_paid_for_by_the_whole_block() {
        // In the first of two blocks, 127 gaps of 1..=4 and one of a
        // thousand: two bits each, and the outlier's eight bits above them
        // as an exception.  The second block is a run: its first id, 0
        // past the block before's last, and a width-0 header.
        let block = |outlier: u32| -> Vec<FileId> {
            let mut id = 0u32;
            (0..2 * BLOCK_SIZE as u32)
                .map(|i| {
                    id += match i {
                        77 => outlier,
                        0..128 => 1 + i % 4,
                        _ => 1,
                    };
                    FileId(id)
                })
                .collect()
        };
        let all = block(1_000);
        let cp = compress(&all);
        assert_eq!(ids_of(&cp), all);
        // first id + header + 127 × 2 bits + count + the gap width and one
        // seven-bit gap + one high
        assert_eq!(cp.view().data().len(), 1 + 1 + 32 + 1 + 2 + 1 + 2);
        // An outlier 18 bits above the rest is not patched at two bits: the
        // width rises until its high part fits eight.
        let wide = block(1_000_000);
        let cp = compress(&wide);
        assert_eq!(ids_of(&cp), wide);
        assert_eq!(encoded_width(&cp.view().data()[1..]), 12);
        // The same for frequencies: the tf = 1 ocean with three islands, the
        // three positions packed in three bytes, the highs in three more;
        // then a block of ones, its header alone.
        let mut tfs = vec![1u32; 2 * BLOCK_SIZE];
        (tfs[3], tfs[64], tfs[127]) = (2, 9, 200);
        let cp = compress_counted(&all, &tfs);
        let mut decoded = Vec::new();
        cp.view().decode_freqs_into(&mut decoded);
        assert_eq!(decoded, tfs);
        assert_eq!(cp.view().freqs().len(), 1 + 1 + 3 + 3 + 1);
    }

    #[test]
    fn representative_blocks_encode_to_pinned_sizes() {
        let size = |values: &[u32]| {
            let mut encoded = Vec::new();
            encode(values, &mut encoded);
            let mut decoded = vec![0; values.len()];
            decode(&encoded, &mut decoded);
            assert_eq!(decoded, values);
            encoded.len()
        };
        // Gaps of three bits, five of them one bit longer: width 3 and five
        // exceptions at 10, 35, 60, 85, 110 — header, 127 × 3 bits, count,
        // 3 bits of gap width and 5 × 5 bits of gap, 5 × 1 bit.
        let gaps: Vec<u32> =
            (0..127u32).map(|i| if i % 25 == 10 { 8 + i % 8 } else { i % 8 }).collect();
        assert_eq!(size(&gaps), 1 + 48 + 1 + 4 + 1);
        // Frequencies less one, nearly all zero: width 0, nine exceptions of
        // at most three bits — header, count, 3 + 9 × 6 bits of gaps (the
        // widest is 35), 9 × 3 bits.
        let mut tfs = vec![0u32; BLOCK_SIZE];
        for (at, tf) in [(0, 1), (9, 1), (20, 1), (33, 1), (50, 1), (64, 1), (90, 2), (91, 2)] {
            tfs[at] = tf;
        }
        tfs[127] = 5;
        assert_eq!(size(&tfs), 1 + 1 + 8 + 4);
        // A single value: the header and its own bits, or its base.
        assert_eq!(size(&[5]), 2);
        assert_eq!(size(&[0]), 1);
        // And a list of one id is that id's varint.
        assert_eq!(compress(&ids(&[300])).view().data(), [0xac, 0x02]);
    }

    #[test]
    fn exception_positions_at_the_block_edges_round_trip_as_gaps() {
        // 128 zeros with exceptions of eight bits: one at position 0 or
        // 127, 32 from 0 on (every gap 0), 32 ending at 127, 32 spread from
        // 0 to 127.  Width 0; the section is the count byte, the gap width
        // and the gaps, and a byte a high part.
        let spread: Vec<usize> = (0..32).map(|k| k * 127 / 31).collect();
        for (positions, gaps) in [
            (vec![0], 0),
            (vec![127], 7),
            ((0..32).collect(), 0),
            ((96..128).collect(), 7),
            (spread, 3),
        ] {
            let mut values = vec![0u32; BLOCK_SIZE];
            positions.iter().for_each(|&at| values[at] = 255);
            let mut encoded = Vec::new();
            encode(&values, &mut encoded);
            let exceptions = positions.len();
            assert_eq!(encoded[0], HAS_EXCEPTIONS, "{positions:?}");
            assert_eq!(usize::from(encoded[2]) & 7, gaps, "{positions:?}");
            assert_eq!(encoded.len(), 1 + exception_section(exceptions, gaps, 8), "{positions:?}");
            assert_eq!(exception_bytes(&encoded, 0, BLOCK_SIZE), encoded.len() - 1);
            assert_eq!(block_end(&encoded, 0, BLOCK_SIZE), Some(encoded.len()));
            let mut decoded = vec![u32::MAX; BLOCK_SIZE];
            decode(&encoded, &mut decoded);
            assert_eq!(decoded, values, "{positions:?}");
        }
    }

    #[test]
    fn hostile_gaps_are_dropped_past_the_block_and_never_panic() {
        // Width 1, three exceptions of one high bit; the positions section
        // is `gaps` bits of width and the three gaps.
        let block = |count: usize, gaps: u64, each: u64| {
            let mut block = vec![1 | HAS_EXCEPTIONS];
            block.resize(1 + count / 8, 0);
            block.push(2);
            let bits = gaps | (each | each << gaps | each << (2 * gaps)) << GAP_WIDTH_BITS;
            let len = (GAP_WIDTH_BITS + 3 * gaps as usize).div_ceil(8);
            block.extend_from_slice(&bits.to_le_bytes()[..len]);
            block.push(0b111);
            block
        };
        let decoded = |block: &[u8], count: usize| -> Vec<usize> {
            assert_eq!(block_end(block, 0, count), Some(block.len()));
            let mut out = vec![7u32; count];
            decode(block, &mut out);
            out.iter().enumerate().filter(|&(_, &value)| value > 0).map(|(at, _)| at).collect()
        };
        // Gap width 0: positions 0, 1, 2.
        assert_eq!(decoded(&block(BLOCK_SIZE, 0, 0), BLOCK_SIZE), [0, 1, 2]);
        // Gap width 7, gaps of 100: positions 100, 201 and 302, the last two
        // past the block and dropped; of 127, only the first stays.
        assert_eq!(decoded(&block(BLOCK_SIZE, 7, 100), BLOCK_SIZE), [100]);
        assert_eq!(decoded(&block(BLOCK_SIZE, 7, 127), BLOCK_SIZE), [127]);
        // In a block of 64 values, even the first is past the end.
        assert!(decoded(&block(64, 7, 100), 64).is_empty());
        // Cut anywhere in the exception section, the block ends past the
        // bytes and decodes without panicking.
        let whole = block(BLOCK_SIZE, 7, 100);
        for cut in BLOCK_SIZE / 8 + 1..whole.len() {
            assert_eq!(block_end(&whole[..cut], 0, BLOCK_SIZE), None, "cut {cut}");
            decode(&whole[..cut], &mut [0; BLOCK_SIZE]);
        }
    }

    #[test]
    fn later_blocks_store_their_first_id_as_a_gap() {
        // Blocks of 128 ids, each starting 10 past the block before's last.
        let all: Vec<FileId> =
            (0..300u32).map(|i| FileId(1_000_000 + i + 9 * (i / BLOCK_SIZE as u32))).collect();
        let cp = compress(&all);
        let (data, skips) = (cp.view().data(), cp.view().skips());
        assert_eq!(data[..3], [0xc0, 0x84, 0x3d], "the first block: its id, 1 000 000");
        for skip in &skips[1..] {
            assert_eq!(data[skip.offset as usize], 9, "a later block: 10 past, less one");
        }
        assert_eq!(ids_of(&cp), all);
    }

    #[test]
    fn singleton_lists_cost_one_varint_and_no_skip_entry() {
        let cp = compress(&ids(&[42]));
        assert_eq!(cp.view().data().len(), 1, "one varint byte for id 42");
        assert!(cp.view().skips().is_empty(), "single-block lists carry no skip table");
        assert_eq!(cp.view().byte_size(), 1);
        assert_eq!(ids_of(&cp), ids(&[42]));
        let mut cursor = cp.view().cursor();
        assert_eq!(cursor.seek(FileId(41)), Some(FileId(42)));
        assert_eq!(cursor.seek(FileId(43)), None);
    }

    #[test]
    fn cursor_walks_and_seeks_across_blocks() {
        let all: Vec<FileId> = (0..1000).map(|i| FileId(i * 3)).collect();
        let cp = compress(&all);
        assert_eq!(cp.view().skips().len(), 1000usize.div_ceil(BLOCK_SIZE));

        // Full walk equals decode.
        let mut cursor = cp.view().cursor();
        let mut walked = Vec::new();
        while let Some(id) = cursor.current() {
            walked.push(id);
            cursor.advance();
        }
        assert_eq!(walked, all);

        // Seeks: exact hit, between ids, across many blocks, past the end.
        let mut cursor = cp.view().cursor();
        assert_eq!(cursor.seek(FileId(300)), Some(FileId(300)));
        assert_eq!(cursor.seek(FileId(301)), Some(FileId(303)));
        assert_eq!(cursor.seek(FileId(2500)), Some(FileId(2502)));
        assert_eq!(cursor.seek(FileId(2997)), Some(FileId(2997)));
        assert_eq!(cursor.seek(FileId(3000)), None);
        assert_eq!(cursor.current(), None);

        // A seek enters only the block it lands in.
        let mut cursor = cp.view().cursor();
        assert_eq!((cursor.total_blocks(), cursor.blocks_visited()), (8, 1));
        cursor.seek(FileId(2997));
        assert_eq!(cursor.blocks_visited(), 2, "the blocks in between skipped untouched");
    }

    #[test]
    fn seek_to_block_boundaries() {
        let all: Vec<FileId> = (0..(BLOCK_SIZE as u32 * 3)).map(FileId).collect();
        let cp = compress(&all);
        let mut cursor = cp.view().cursor();
        let boundary = FileId(BLOCK_SIZE as u32);
        assert_eq!(cursor.seek(boundary), Some(boundary));
        let last = FileId(BLOCK_SIZE as u32 * 3 - 1);
        assert_eq!(cursor.seek(last), Some(last));
        cursor.advance();
        assert_eq!(cursor.current(), None);
    }

    #[test]
    fn slice_cursor_matches_block_cursor() {
        let all: Vec<FileId> = (0..600).map(|i| FileId(i * 7 + i % 5)).collect();
        let cp = compress(&all);
        let mut slice = SliceCursor::new(&all);
        let mut block = cp.view().cursor();
        assert_eq!(slice.len(), block.len());
        for target in [0u32, 70, 71, 400, 4000, 4194] {
            assert_eq!(slice.seek(FileId(target)), block.seek(FileId(target)), "seek {target}");
            assert_eq!(slice.current(), block.current());
            slice.advance();
            block.advance();
            assert_eq!(slice.current(), block.current(), "after advance past {target}");
        }
    }

    #[test]
    fn freqs_roundtrip_and_lazy_cursor_access() {
        let all: Vec<FileId> = (0..500).map(|i| FileId(i * 2)).collect();
        let tfs = (0..500).map(|i| 1 + (i % 7)).collect::<Vec<u32>>();
        let cp = compress_counted(&all, &tfs);
        let mut decoded = Vec::new();
        cp.view().decode_freqs_into(&mut decoded);
        assert_eq!(decoded, tfs);
        assert_eq!(cp.view().freq_offsets().len(), 500usize.div_ceil(BLOCK_SIZE));

        let mut cursor = cp.view().cursor();
        assert_eq!(cursor.current_tf(), 1);
        cursor.advance();
        assert_eq!(cursor.current_tf(), 2);
        assert_eq!(cursor.seek(FileId(260)), Some(FileId(260)));
        assert_eq!(cursor.current_tf(), 1 + (130 % 7));

        // All-1 frequencies stay in canonical (absent) form.
        let flat = compress_counted(&all, &vec![1; 500]);
        assert!(flat.view().freqs().is_empty());
        assert!(flat.view().freq_offsets().is_empty());
        assert_eq!(flat.view().cursor().current_tf(), 1);
        assert_eq!(to_list(cp.view()).tf_of(FileId(2)), Some(2));
        // A short list hands out its tfs beside its ids, whole — and ones
        // when it stores none.
        for (tfs, stored) in [(&tfs[..100], true), (&[1; 100][..], false)] {
            let short = compress_counted(&all[..100], tfs);
            assert_eq!(short.view().freqs().is_empty(), !stored);
            let mut cursor = short.view().cursor();
            cursor.advance_by(3);
            assert_eq!(cursor.block_tfs(), (&all[3..100], &tfs[3..]));
        }
    }

    #[test]
    fn constant_freq_blocks_cost_two_bytes() {
        let all: Vec<FileId> = (0..256).map(FileId).collect();
        let mut tfs = vec![3u32; 256];
        tfs[200] = 9; // second block is non-constant
        let cp = compress_counted(&all, &tfs);
        let first_block_bytes =
            (cp.view().freq_offsets()[1] - cp.view().freq_offsets()[0]) as usize;
        assert_eq!(first_block_bytes, 2, "constant block: header + one varint");
        let mut decoded = Vec::new();
        cp.view().decode_freqs_into(&mut decoded);
        assert_eq!(decoded, tfs);
    }

    /// Mostly small values, a few up to `u32::MAX`; now and then all equal,
    /// or all zero.
    fn block_values() -> impl Strategy<Value = Vec<u32>> {
        let raw = proptest::collection::vec((0u8..9, any::<u32>()), 1..=BLOCK_SIZE);
        (0u8..6, raw).prop_map(|(shape, raw)| match shape {
            4 => vec![raw[0].1; raw.len()],
            5 => vec![0; raw.len()],
            _ => raw
                .into_iter()
                .map(|(kind, value)| match kind {
                    0..=5 => value % 4,
                    6 | 7 => value % 1_000,
                    _ => value,
                })
                .collect(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Blocks at the codec's limits — no, one, 32 and 33 values one to
        /// nine bits longer than the rest, now and then all above a base —
        /// round-trip; the patched layout at the rest's width is never beaten
        /// by what the encoder picks when it is a candidate, and is never
        /// picked when it is not.
        #[test]
        fn codec_round_trips_at_its_limits(
            width in 1usize..=23,
            outliers in 0usize..4,
            high in 0usize..3,
            noise in proptest::collection::vec(any::<u32>(), BLOCK_SIZE),
            base in 0usize..3,
        ) {
            let (outliers, high) = ([0, 1, 32, 33][outliers], [1, 8, 9][high]);
            let base = [0u32, 1, 1 << 20][base];
            // The outliers stand anywhere but first: the positions in an
            // order the noise decides.
            let mut spots: Vec<usize> = (1..BLOCK_SIZE).collect();
            spots.sort_unstable_by_key(|&spot| noise[spot].rotate_left(11));
            // Every value is `width` bits long but the first, which is zero.
            let mut values: Vec<u32> = noise
                .iter()
                .map(|&bits| (1 << (width - 1)) | (bits & ((1 << (width - 1)) - 1)))
                .collect();
            values[0] = 0;
            let longer = width + high;
            for &spot in &spots[..outliers] {
                values[spot] = (1 << (longer - 1)) | (noise[spot] & ((1 << (longer - 1)) - 1));
            }
            values.iter_mut().for_each(|value| *value += base);
            let mut encoded = Vec::new();
            encode(&values, &mut encoded);
            let mut decoded = vec![u32::MAX; values.len()];
            decode(&encoded, &mut decoded);
            prop_assert_eq!(&decoded, &values);
            if base == 0 && outliers > 0 {
                if outliers > MAX_EXCEPTIONS || high > MAX_HIGH_WIDTH {
                    prop_assert!(encoded_width(&encoded) > width);
                } else {
                    // Gaps are at most seven bits wide.
                    let patched = 1
                        + (BLOCK_SIZE * width).div_ceil(8)
                        + exception_section(outliers, POSITION_BITS, high);
                    prop_assert!(encoded.len() <= patched);
                }
            }
            // Width 32: every value but a zero is 32 bits long (so no base
            // helps), and none is an exception.
            let mut full: Vec<u32> = noise.iter().map(|&bits| bits | 1 << 31).collect();
            full[0] = 0;
            let mut encoded = Vec::new();
            encode(&full, &mut encoded);
            prop_assert_eq!((encoded_width(&encoded), encoded.len()), (32, 1 + BLOCK_SIZE * 4));
            let mut decoded = vec![0; BLOCK_SIZE];
            decode(&encoded, &mut decoded);
            prop_assert_eq!(decoded, full);
        }
    }

    proptest! {
        /// Any block round-trips, and patching never costs more than a
        /// header and one spare byte over packing at the widest value.
        #[test]
        fn codec_round_trips_within_two_bytes_of_plain_packing(values in block_values()) {
            let mut encoded = Vec::new();
            encode(&values, &mut encoded);
            let mut decoded = vec![u32::MAX; values.len()];
            decode(&encoded, &mut decoded);
            prop_assert_eq!(&decoded, &values);
            // The block says its own length.
            prop_assert_eq!(block_end(&encoded, 0, values.len()), Some(encoded.len()));
            let widest = values.iter().map(|&v| bits_needed(v)).max().unwrap() as usize;
            prop_assert!(encoded.len() <= (values.len() * widest).div_ceil(8) + 2);
            if values.iter().all(|&v| v == values[0]) {
                prop_assert!(encoded.len() <= 1 + varint_len(values[0]));
            }
        }

        /// Hostile blocks — arbitrary bytes, a valid block with one bit
        /// flipped or cut at any byte, and exceptions of any gap width whose
        /// gaps run past the block or whose bytes run past the payload —
        /// fill `out` and never panic; exceptions read as the layout says, a
        /// position outside the block dropped and bytes past the payload
        /// zero.
        #[test]
        fn codec_decodes_hostile_bytes_without_panicking(
            noise in proptest::collection::vec(any::<u8>(), 0..80),
            count in 0..=BLOCK_SIZE,
            values in block_values(),
            at in any::<usize>(),
            bit in 0u8..8,
            width in 0usize..=32,
            count_byte in any::<u8>(),
        ) {
            let mut out = vec![7u32; count];
            decode(&noise, &mut out);
            if let Some(end) = block_end(&noise, 0, count) {
                prop_assert!(end <= noise.len());
            }
            let mut encoded = Vec::new();
            encode(&values, &mut encoded);
            let at = at % encoded.len();
            let mut out = vec![7u32; values.len()];
            decode(&encoded[..at], &mut out);
            encoded[at] ^= 1 << bit;
            decode(&encoded, &mut out);

            // Low bits all zero, then the exceptions: `noise` is whatever
            // of their positions and high parts there is.
            let mut block = vec![width as u8 | HAS_EXCEPTIONS];
            block.resize(1 + (count * width).div_ceil(8), 0);
            block.push(count_byte);
            block.extend_from_slice(&noise);
            let mut out = vec![7u32; count];
            decode(&block, &mut out);
            let exceptions = usize::from(count_byte & 0x1f) + 1;
            let high = usize::from(count_byte >> 5) + 1;
            let bit_at =
                |at: usize| noise.get(at / 8).map_or(0, |byte| u32::from(byte >> (at % 8)) & 1);
            let field =
                |from: usize, bits: usize| (0..bits).map(|k| bit_at(from + k) << k).sum::<u32>();
            let gaps = field(0, GAP_WIDTH_BITS) as usize;
            let highs_from = (GAP_WIDTH_BITS + exceptions * gaps).div_ceil(8) * 8;
            let mut expected = vec![0u32; count];
            let mut position = 0;
            for k in 0..exceptions {
                position += field(GAP_WIDTH_BITS + k * gaps, gaps) as usize;
                let patch = field(highs_from + k * high, high);
                if let Some(slot) = expected.get_mut(position) {
                    *slot |= patch.checked_shl(width as u32).unwrap_or(0);
                }
                position += 1;
            }
            prop_assert_eq!(out, expected);
        }

        /// Frequencies round-trip for arbitrary lists, and every decoded tf
        /// matches what the cursor reports posting by posting.
        #[test]
        fn freq_roundtrip_arbitrary(
            raw in proptest::collection::vec((0u32..100_000, 1u32..20), 1..500)
        ) {
            let mut sorted: Vec<(u32, u32)> = raw;
            sorted.sort_unstable_by_key(|&(id, _)| id);
            sorted.dedup_by_key(|&mut (id, _)| id);
            let all: Vec<FileId> = sorted.iter().map(|&(id, _)| FileId(id)).collect();
            let tfs = sorted.iter().map(|&(_, tf)| tf).collect::<Vec<u32>>();
            let cp = compress_counted(&all, &tfs);
            let mut decoded = Vec::new();
            cp.view().decode_freqs_into(&mut decoded);
            let expect_tracked = tfs.iter().any(|&tf| tf > 1);
            if expect_tracked {
                prop_assert_eq!(&decoded, &tfs);
            } else {
                prop_assert!(decoded.is_empty());
            }
            let mut cursor = cp.view().cursor();
            for (i, &(id, tf)) in sorted.iter().enumerate() {
                prop_assert_eq!(cursor.current(), Some(FileId(id)), "pos {}", i);
                prop_assert_eq!(cursor.current_tf(), if expect_tracked { tf } else { 1 });
                cursor.advance();
            }
            prop_assert_eq!(cursor.current(), None);
        }

        /// Arbitrary sorted id sets round-trip through compression exactly,
        /// and the byte size never exceeds a small multiple of the raw form.
        #[test]
        fn roundtrip_arbitrary_sorted_sets(
            raw in proptest::collection::vec(0u32..2_000_000, 0..700)
        ) {
            let mut sorted = raw;
            sorted.sort_unstable();
            sorted.dedup();
            let all: Vec<FileId> = sorted.into_iter().map(FileId).collect();
            let cp = compress(&all);
            prop_assert_eq!(cp.view().len(), all.len());
            prop_assert_eq!(ids_of(&cp), all.clone());
            prop_assert_eq!(to_list(cp.view()).doc_ids(), all.as_slice());
        }

        /// Seeking to arbitrary targets agrees between the block cursor and
        /// a naive scan, from arbitrary interleavings of seeks and advances.
        #[test]
        fn cursor_seek_matches_naive(
            raw in proptest::collection::vec(0u32..50_000, 1..600),
            ops in proptest::collection::vec((any::<bool>(), 0u32..60_000), 1..60),
        ) {
            let mut sorted = raw;
            sorted.sort_unstable();
            sorted.dedup();
            let all: Vec<FileId> = sorted.into_iter().map(FileId).collect();
            let cp = compress(&all);
            let mut cursor = cp.view().cursor();
            let mut naive_pos = 0usize;
            for (advance, target) in ops {
                if advance {
                    cursor.advance();
                    naive_pos = (naive_pos + 1).min(all.len());
                } else {
                    let got = cursor.seek(FileId(target));
                    // seek never moves backwards from the naive position.
                    while naive_pos < all.len() && all[naive_pos] < FileId(target) {
                        naive_pos += 1;
                    }
                    prop_assert_eq!(got, all.get(naive_pos).copied());
                }
                prop_assert_eq!(cursor.current(), all.get(naive_pos).copied());
            }
        }
    }
}
