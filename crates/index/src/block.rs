//! Block-compressed posting lists with skip-aware cursors.
//!
//! A [`CompressedPostings`] stores a sorted, duplicate-free sequence of file
//! ids in fixed [`BLOCK_SIZE`]-id blocks.  It is the *encoder's* output; every
//! reader — cursors, decoders, the query evaluator — goes through the `Copy`
//! borrowed [`CompressedView`], which a sealed shard also hands out straight
//! over its segment bytes.  A block of ids is its first id and the gaps
//! behind it (less one: ids ascend strictly); a block of term frequencies is
//! the frequencies (less one: a frequency is at least 1).  Both go through
//! **one** codec, a patched frame of reference ([`encode`] / [`decode`]):
//!
//! ```text
//! header       1 byte: bits 0..=5 the width b (0..=32), 0x40 "a base
//!              follows", 0x80 "exceptions follow"
//! base         varint, subtracted from every value      (only when flagged)
//! packed       the low b bits of every value: ⌈n·b / 8⌉ bytes
//! exceptions   a count byte, then per value that does not fit b bits its
//!              position (one byte) and its bits above b (a varint)
//!                                                       (only when flagged)
//! ```
//!
//! `b` is whichever width makes the block smallest, so one outlier among 128
//! values costs its own two or three bytes and not a wider slot for all of
//! them; a block of equal values (a dense run, a stride, the tf = 1 ocean)
//! is width 0 — a header byte and at most a base.  Eight values of width `b`
//! fill exactly `b` bytes, so [`decode`] unpacks them eight at a time with a
//! kernel compiled for each width, in which every shift and offset is a
//! constant.
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
use crate::varint::{read_lenient, varint_len, write_varint};

/// Number of ids per compressed block (the classic inverted-index choice:
/// big enough to amortise the skip entry, small enough that decoding one
/// block on a seek stays cheap).
pub const BLOCK_SIZE: usize = 128;

/// The bits of a block's header byte that hold its width.
const WIDTH_BITS: u8 = 0x3f;
/// Header flag: a base follows the header.
const HAS_BASE: u8 = 0x40;
/// Header flag: exceptions follow the packed values.
const HAS_EXCEPTIONS: u8 = 0x80;

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
/// `data` is self-contained — every block opens with a varint of its first
/// (absolute) id, followed (when it holds more ids) by the codec block of
/// its gaps less one — so a block decodes without consulting anything else.
/// The skip table is pure acceleration and is only materialised for lists
/// spanning more than one block: a singleton term (the long tail of every
/// real vocabulary) costs one varint, typically 1–3 bytes against 4 raw.
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

fn bits_needed(value: u32) -> u32 {
    32 - value.leading_zeros()
}

impl CompressedPostings {
    /// Compresses a sorted, duplicate-free slice of ids.
    ///
    /// The invariant is the same one [`PostingList`](crate::PostingList)
    /// maintains; it is checked in debug builds only.
    #[must_use]
    pub fn from_sorted(ids: &[FileId]) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "compressed postings require sorted, duplicate-free ids"
        );
        let block_count = ids.len().div_ceil(BLOCK_SIZE);
        let mut skips = Vec::with_capacity(if block_count > 1 { block_count } else { 0 });
        let mut data = Vec::new();
        let mut gaps = [0u32; BLOCK_SIZE];
        for block in ids.chunks(BLOCK_SIZE) {
            if block_count > 1 {
                let offset = u32::try_from(data.len()).expect("posting data under 4 GiB");
                skips.push(SkipEntry { last: block[block.len() - 1], offset });
            }
            write_varint(&mut data, u64::from(block[0].as_u32()));
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
        }
    }

    /// Compresses a sorted id slice together with its per-posting term
    /// frequencies.  `tfs` must be parallel to `ids` or empty; an all-1
    /// frequency vector is not materialised (the canonical empty form).
    #[must_use]
    pub fn from_counted(ids: &[FileId], tfs: &[u32]) -> Self {
        debug_assert!(tfs.is_empty() || tfs.len() == ids.len());
        let mut cp = CompressedPostings::from_sorted(ids);
        if tfs.is_empty() || tfs.iter().all(|&tf| tf <= 1) {
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
            freqs: &self.freqs,
            freq_offsets: &self.freq_offsets,
            bound: self.bound,
        }
    }
}

/// A block-compressed posting list, borrowed: the parts of a
/// [`CompressedPostings`], or the same parts found in place in a sealed
/// shard's segment bytes.  `Copy`, so cursors carry it by value.
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

    /// The concatenated encoded block payloads.
    #[must_use]
    pub fn data(&self) -> &'a [u8] {
        self.data
    }

    /// The encoded per-posting frequency payload (empty ⇒ every tf is 1).
    #[must_use]
    pub fn freqs(&self) -> &'a [u8] {
        self.freqs
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
        let first = read_lenient(self.data, &mut pos);
        let gaps = &mut gaps[..count - 1];
        decode(self.data.get(pos..).unwrap_or(&[]), gaps);
        // Summed in 64 bits, where 128 gaps cannot overflow, and clamped off
        // the chain of additions: hostile gaps saturate, honest ones pay one
        // add each.
        out[0] = FileId(first);
        let mut id = u64::from(first);
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
        out.reserve(self.len);
        let (mut gaps, mut ids) = ([0u32; BLOCK_SIZE], [FileId(0); BLOCK_SIZE]);
        for index in 0..self.block_count() {
            let count = self.block_ids(index, &mut gaps, &mut ids);
            out.extend_from_slice(&ids[..count]);
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

    /// Decodes every per-posting frequency into `out` (cleared first),
    /// parallel to [`CompressedView::decode_into`]'s ids.
    pub fn decode_freqs_into(&self, out: &mut Vec<u32>) {
        out.clear();
        if self.freqs.is_empty() {
            return;
        }
        out.reserve(self.len);
        let mut scratch = [0u32; BLOCK_SIZE];
        for index in 0..self.block_count() {
            let count = self.block_tfs(index, &mut scratch);
            out.extend_from_slice(&scratch[..count]);
        }
    }
}

/// The width at which `values`, each less `base`, encode smallest: `(width,
/// exceptions, bytes)`, the values that do not fit the width and the bytes
/// the packed and exception sections take.  A value `d` bits longer than the
/// width costs a position byte and `⌈d / 7⌉` varint bytes, one for every
/// seventh bit it reaches past the width — so from a histogram of bit
/// lengths, summed from the top, a width is priced in a handful of lookups:
/// the cost is the block's length plus a constant, not their product.
fn cheapest_width(values: &[u32], base: u32) -> (usize, usize, usize) {
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
    let mut best = (longest, 0, (values.len() * longest).div_ceil(8));
    for width in (0..longest).rev() {
        let exceptions = longer[width];
        let varints: usize = (width..longest).step_by(7).map(|reached| longer[reached]).sum();
        let bytes = (values.len() * width).div_ceil(8) + 1 + exceptions + varints;
        if bytes < best.2 {
            best = (width, exceptions, bytes);
        }
    }
    best
}

/// Appends `values` (at most [`BLOCK_SIZE`] of them; none writes nothing) as
/// one block of the codec the module documentation lays out.
pub fn encode(values: &[u32], out: &mut Vec<u8>) {
    debug_assert!(values.len() <= BLOCK_SIZE, "positions and the exception count are bytes");
    let Some(&least) = values.iter().min() else { return };
    let (mut base, (mut width, mut exceptions, bytes)) = (0, cheapest_width(values, 0));
    if least > 0 {
        let rebased = cheapest_width(values, least);
        if rebased.2 + varint_len(least) < bytes {
            (base, (width, exceptions, _)) = (least, rebased);
        }
    }
    let flags =
        if base > 0 { HAS_BASE } else { 0 } | if exceptions > 0 { HAS_EXCEPTIONS } else { 0 };
    out.push(width as u8 | flags);
    if base > 0 {
        write_varint(out, u64::from(base));
    }
    // Values enter a u64 accumulator `width` bits at a time, lowest bits
    // first, and leave it as whole bytes.
    let mask = (1u64 << width) - 1;
    let mut acc = 0u64;
    let mut acc_bits = 0;
    for &value in values {
        acc |= (u64::from(value - base) & mask) << acc_bits;
        acc_bits += width;
        if acc_bits >= 32 {
            out.extend_from_slice(&(acc as u32).to_le_bytes());
            acc >>= 32;
            acc_bits -= 32;
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..acc_bits.div_ceil(8)]);
    if exceptions > 0 {
        out.push(exceptions as u8);
        for (position, &value) in values.iter().enumerate() {
            let high = u64::from(value - base) >> width;
            if high > 0 {
                out.push(position as u8);
                write_varint(out, high);
            }
        }
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
        pos += 1;
        for _ in 0..count {
            let position = block.get(pos).copied().unwrap_or(u8::MAX);
            pos += 1;
            let high = read_lenient(block, &mut pos);
            if let Some(slot) = out.get_mut(usize::from(position)) {
                *slot |= high.checked_shl(width as u32).unwrap_or(0);
            }
        }
    }
    if base > 0 {
        out.iter_mut().for_each(|value| *value = value.wrapping_add(base));
    }
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
        self.len_in_block = self.postings.block_ids(block, &mut self.tfs, &mut self.ids);
    }

    fn load_tfs(&mut self) {
        if !self.tfs_loaded {
            self.postings.block_tfs(self.block, &mut self.tfs);
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

    fn ids_of(cp: &CompressedPostings) -> Vec<FileId> {
        let mut out = Vec::new();
        cp.view().decode_into(&mut out);
        out
    }

    #[test]
    fn empty_list_compresses_to_nothing() {
        let cp = CompressedPostings::from_sorted(&[]);
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
        let cp = CompressedPostings::from_sorted(&dense);
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
        let cp = CompressedPostings::from_sorted(&sparse);
        assert_eq!(ids_of(&cp), sparse);
        // A constant stride is a base and nothing else; an irregular one
        // still packs at the width of its gaps, 17 bits against 32 raw.
        assert!(cp.view().data().len() < 40, "{} bytes", cp.view().data().len());
        let jittered: Vec<FileId> = (0..500).map(|i| FileId(i * 100_003 + i % 7)).collect();
        let cp = CompressedPostings::from_sorted(&jittered);
        assert_eq!(ids_of(&cp), jittered);
        assert!(cp.view().byte_size() * 8 < jittered.len() * 20);
    }

    #[test]
    fn one_outlier_is_patched_not_paid_for_by_the_whole_block() {
        // 127 gaps of 1..=4 and one of a million: two bits each, and the
        // outlier's high bits as an exception.
        let mut id = 0u32;
        let all: Vec<FileId> = (0..BLOCK_SIZE as u32)
            .map(|i| {
                id += if i == 77 { 1_000_000 } else { 1 + i % 4 };
                FileId(id)
            })
            .collect();
        let cp = CompressedPostings::from_sorted(&all);
        assert_eq!(ids_of(&cp), all);
        // first id + header + 127 × 2 bits + count + position + 3 varint bytes
        assert_eq!(cp.view().data().len(), 1 + 1 + 32 + 1 + 1 + 3);
        // The same for frequencies: the tf = 1 ocean with three islands.
        let mut tfs = vec![1u32; BLOCK_SIZE];
        (tfs[3], tfs[64], tfs[127]) = (2, 900, 70_000);
        let cp = CompressedPostings::from_counted(&all, &tfs);
        let mut decoded = Vec::new();
        cp.view().decode_freqs_into(&mut decoded);
        assert_eq!(decoded, tfs);
        assert_eq!(cp.view().freqs().len(), 1 + 1 + (1 + 1) + (1 + 2) + (1 + 3));
    }

    #[test]
    fn singleton_lists_cost_one_varint_and_no_skip_entry() {
        let cp = CompressedPostings::from_sorted(&ids(&[42]));
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
        let cp = CompressedPostings::from_sorted(&all);
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
        let cp = CompressedPostings::from_sorted(&all);
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
        let cp = CompressedPostings::from_sorted(&all);
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
        let cp = CompressedPostings::from_counted(&all, &tfs);
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
        let flat = CompressedPostings::from_counted(&all, &vec![1; 500]);
        assert!(flat.view().freqs().is_empty());
        assert!(flat.view().freq_offsets().is_empty());
        assert_eq!(flat.view().cursor().current_tf(), 1);
        assert_eq!(to_list(cp.view()).tf_of(FileId(2)), Some(2));
    }

    #[test]
    fn constant_freq_blocks_cost_two_bytes() {
        let all: Vec<FileId> = (0..256).map(FileId).collect();
        let mut tfs = vec![3u32; 256];
        tfs[200] = 9; // second block is non-constant
        let cp = CompressedPostings::from_counted(&all, &tfs);
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
        /// Any block round-trips, and patching never costs more than a
        /// header and one spare byte over packing at the widest value.
        #[test]
        fn codec_round_trips_within_two_bytes_of_plain_packing(values in block_values()) {
            let mut encoded = Vec::new();
            encode(&values, &mut encoded);
            let mut decoded = vec![u32::MAX; values.len()];
            decode(&encoded, &mut decoded);
            prop_assert_eq!(&decoded, &values);
            let widest = values.iter().map(|&v| bits_needed(v)).max().unwrap() as usize;
            prop_assert!(encoded.len() <= (values.len() * widest).div_ceil(8) + 2);
            if values.iter().all(|&v| v == values[0]) {
                prop_assert!(encoded.len() <= 1 + varint_len(values[0]));
            }
        }

        /// Hostile blocks — arbitrary bytes, and a valid block with one bit
        /// flipped or cut at any byte — fill `out` and never panic.
        #[test]
        fn codec_decodes_hostile_bytes_without_panicking(
            noise in proptest::collection::vec(any::<u8>(), 0..80),
            count in 0..=BLOCK_SIZE,
            values in block_values(),
            at in any::<usize>(),
            bit in 0u8..8,
        ) {
            let mut out = vec![7u32; count];
            decode(&noise, &mut out);
            let mut encoded = Vec::new();
            encode(&values, &mut encoded);
            let at = at % encoded.len();
            let mut out = vec![7u32; values.len()];
            decode(&encoded[..at], &mut out);
            encoded[at] ^= 1 << bit;
            decode(&encoded, &mut out);
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
            let cp = CompressedPostings::from_counted(&all, &tfs);
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
            let cp = CompressedPostings::from_sorted(&all);
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
            let cp = CompressedPostings::from_sorted(&all);
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
