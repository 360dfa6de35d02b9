//! Block-compressed posting lists with skip-aware cursors.
//!
//! A [`CompressedPostings`] stores a sorted, duplicate-free sequence of file
//! ids in fixed [`BLOCK_SIZE`]-id blocks.  It is the *encoder's* output; every
//! reader — cursors, decoders, the query evaluator — goes through the `Copy`
//! borrowed [`CompressedView`], which a sealed shard also hands out straight
//! over its segment bytes.  Within a block the ids are delta-encoded and each
//! block is written in whichever of two encodings is smaller:
//!
//! * **varint** — LEB128 per gap, best for sparse lists with occasional big
//!   jumps;
//! * **bitpacked** — every gap in the block packed at the bit width of the
//!   block's largest gap, best for dense lists (a run of consecutive ids
//!   packs at 1 bit per id).
//!
//! Each block carries a [`SkipEntry`] — `(first_id, last_id, byte offset)` —
//! so a reader can decide whether a block can possibly contain a target id
//! *without decoding it*.  That is what makes skewed intersections cheap:
//! [`BlockCursor::seek`] binary-searches the skip table, decodes at most one
//! block, and skips every block in between untouched.
//!
//! The [`PostingCursor`] trait abstracts "a sorted stream of ids supporting
//! `seek`"; it is implemented both by [`BlockCursor`] (decoding one block at
//! a time into a reusable scratch buffer) and by [`SliceCursor`] (a galloping
//! cursor over an uncompressed `&[FileId]` slice — a materialised prefix
//! union), so the query evaluator leapfrogs over either the same way.

use crate::doc_table::FileId;
use crate::posting::PostingList;
use crate::varint::{read_lenient, varint_len, write_varint};

/// Number of ids per compressed block (the classic inverted-index choice:
/// big enough to amortise the skip entry, small enough that decoding one
/// block on a seek stays cheap).
pub const BLOCK_SIZE: usize = 128;

/// Per-block encoding tag stored in the block's first payload byte.
const ENC_VARINT: u8 = 0xff;
/// All gaps in the block are equal; one varint holds the gap.  Covers dense
/// runs (gap 1), strided lists and uniformly spread mid-frequency terms —
/// the cheapest blocks to store *and* to decode (pure arithmetic, no bit
/// stream).
const ENC_CONSTANT: u8 = 0x00;
// Any other header byte value `w` in `1..=32` means "bitpacked, width w".

/// Skip metadata for one block: enough to route a `seek` without decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipEntry {
    /// First (smallest) id stored in the block.
    pub first: FileId,
    /// Last (largest) id stored in the block.
    pub last: FileId,
    /// Byte offset of the block's payload in the data buffer.
    pub offset: u32,
}

/// A sorted, duplicate-free posting list in block-compressed form, as the
/// encoder produces it.  Reading goes through [`CompressedPostings::view`].
///
/// `data` is self-contained — every block opens with a varint of its first
/// (absolute) id, so a block decodes without consulting anything else.  The
/// skip table is pure acceleration and is only materialised for lists
/// spanning more than one block: a singleton term (the long tail of every
/// real vocabulary) costs one varint, typically 1–3 bytes against 4 raw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompressedPostings {
    len: usize,
    /// One entry per block when there are 2+ blocks; empty otherwise.
    skips: Vec<SkipEntry>,
    data: Vec<u8>,
    /// Block-encoded per-posting term frequencies.  Empty means every
    /// frequency is 1 (then `freq_offsets` is empty too).  Each block opens
    /// with a header byte: [`ENC_CONSTANT`] followed by one varint holding
    /// the block's uniform frequency, or a width `w` in `1..=32` followed by
    /// the block's frequencies bitpacked at `w` bits each.
    freqs: Vec<u8>,
    /// Byte offset of each block's frequency payload in `freqs`; one entry
    /// per block iff `freqs` is non-empty.
    freq_offsets: Vec<u32>,
    /// Per-block upper bound on the posting score, quantized as
    /// `ceil(bound / max_score * 255)` — one entry per block iff the list is
    /// scored.  Quantizing with `ceil` keeps the dequantized bound
    /// admissible (never below the true block maximum).
    block_scores: Vec<u8>,
    /// The true maximum posting score over the whole list (the quantization
    /// scale).  `0.0` means the list is unscored.
    max_score: f32,
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
    /// The invariant is the same one [`PostingList`] maintains; it is checked
    /// in debug builds only.
    #[must_use]
    pub fn from_sorted(ids: &[FileId]) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "compressed postings require sorted, duplicate-free ids"
        );
        let block_count = ids.len().div_ceil(BLOCK_SIZE);
        let mut skips = Vec::with_capacity(if block_count > 1 { block_count } else { 0 });
        let mut data = Vec::new();
        for block in ids.chunks(BLOCK_SIZE) {
            if block_count > 1 {
                let offset = u32::try_from(data.len()).expect("posting data under 4 GiB");
                skips.push(SkipEntry { first: block[0], last: block[block.len() - 1], offset });
            }
            encode_block(block, &mut data);
        }
        CompressedPostings {
            len: ids.len(),
            skips,
            data,
            freqs: Vec::new(),
            freq_offsets: Vec::new(),
            block_scores: Vec::new(),
            max_score: 0.0,
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
        for block in tfs.chunks(BLOCK_SIZE) {
            cp.freq_offsets.push(u32::try_from(cp.freqs.len()).expect("freq data under 4 GiB"));
            encode_freq_block(block, &mut cp.freqs);
        }
        cp
    }

    /// Records per-block score upper bounds from the per-posting scores
    /// (parallel to the ids), quantized to a u8 ceiling against the list
    /// maximum.  Non-positive maxima leave the list unscored.
    pub fn score_blocks(&mut self, scores: &[f32]) {
        debug_assert_eq!(scores.len(), self.len);
        let list_max = scores.iter().fold(0.0f32, |acc, &s| acc.max(s));
        if list_max <= 0.0 || !list_max.is_finite() {
            self.block_scores.clear();
            self.max_score = 0.0;
            return;
        }
        self.max_score = list_max;
        self.block_scores = scores
            .chunks(BLOCK_SIZE)
            .map(|chunk| {
                let block_max = chunk.iter().fold(0.0f32, |acc, &s| acc.max(s));
                let quantized = (f64::from(block_max) / f64::from(list_max) * 255.0).ceil();
                quantized.clamp(1.0, 255.0) as u8
            })
            .collect();
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
            block_scores: &self.block_scores,
            max_score: self.max_score,
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
    pub(crate) block_scores: &'a [u8],
    pub(crate) max_score: f32,
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

    /// The quantized per-block score upper bounds (empty ⇒ unscored).
    #[must_use]
    pub fn block_scores(&self) -> &'a [u8] {
        self.block_scores
    }

    /// The true maximum posting score of the list (`0.0` ⇒ unscored).
    #[must_use]
    pub fn max_score(&self) -> f32 {
        self.max_score
    }

    /// Dequantized score upper bound of block `index`; the list maximum when
    /// no per-block table exists.  Admissible: never below the true block
    /// maximum (callers still add a small slack before comparing against a
    /// threshold to absorb float rounding).
    #[must_use]
    pub fn block_score_bound(&self, index: usize) -> f32 {
        match self.block_scores.get(index) {
            Some(&q) => (f64::from(self.max_score) * f64::from(q) / 255.0) as f32,
            None => self.max_score,
        }
    }

    /// Bytes this list occupies: payload plus skip table (12 bytes per
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

    /// Reads the cheap part of a block: its first id and, when the block is
    /// an arithmetic progression, its constant gap — letting cursors serve
    /// such blocks without materialising a single id.
    fn block_shape(&self, index: usize) -> BlockShape {
        let count = self.block_len(index);
        let mut pos = self.block_offset(index);
        let first = read_lenient(self.data, &mut pos);
        if count == 1 {
            return BlockShape::Constant { first, gap: 0 };
        }
        if self.data.get(pos).copied() == Some(ENC_CONSTANT) {
            pos += 1;
            let gap = read_lenient(self.data, &mut pos);
            return BlockShape::Constant { first, gap };
        }
        BlockShape::Packed
    }

    /// Decodes block `index` into `out[..count]`, returning `count`.
    /// `out` must hold at least [`BLOCK_SIZE`] slots.
    fn decode_block(&self, index: usize, out: &mut [FileId]) -> usize {
        let count = self.block_len(index);
        let mut pos = self.block_offset(index);
        let mut previous = read_lenient(self.data, &mut pos);
        out[0] = FileId(previous);
        if count == 1 {
            return 1;
        }
        let header = if pos < self.data.len() {
            let h = self.data[pos];
            pos += 1;
            h
        } else {
            ENC_VARINT
        };
        if header == ENC_VARINT {
            for slot in out.iter_mut().take(count).skip(1) {
                let gap = read_lenient(self.data, &mut pos);
                previous = previous.saturating_add(gap);
                *slot = FileId(previous);
            }
        } else if header == ENC_CONSTANT {
            let gap = read_lenient(self.data, &mut pos);
            for slot in out.iter_mut().take(count).skip(1) {
                previous = previous.saturating_add(gap);
                *slot = FileId(previous);
            }
        } else {
            // Streaming bit buffer: bytes enter a u64 accumulator and gaps
            // leave it `width` bits at a time — a handful of shifts per gap
            // instead of a per-bit loop.  `width <= 32` and at most 7 stale
            // bits carry over, so the accumulator never overflows.
            let width = u32::from(header).min(32);
            let mask = if width == 32 { u64::from(u32::MAX) } else { (1u64 << width) - 1 };
            let mut acc = 0u64;
            let mut acc_bits = 0u32;
            for slot in out.iter_mut().take(count).skip(1) {
                while acc_bits < width {
                    let byte = self.data.get(pos).copied().unwrap_or(0);
                    acc |= u64::from(byte) << acc_bits;
                    acc_bits += 8;
                    pos += 1;
                }
                let gap = (acc & mask) as u32;
                acc >>= width;
                acc_bits -= width;
                previous = previous.saturating_add(gap);
                *slot = FileId(previous);
            }
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
        let mut scratch = [FileId(0); BLOCK_SIZE];
        for index in 0..self.block_count() {
            let count = self.decode_block(index, &mut scratch);
            out.extend_from_slice(&scratch[..count]);
        }
    }

    /// Decodes the frequency payload of block `index` into `out[..count]`,
    /// returning `count`.  `out` must hold at least [`BLOCK_SIZE`] slots.
    /// Untracked lists fill with 1.
    fn decode_freq_block(&self, index: usize, out: &mut [u32]) -> usize {
        let count = self.block_len(index);
        let Some(&offset) = self.freq_offsets.get(index) else {
            out[..count].fill(1);
            return count;
        };
        let mut pos = offset as usize;
        let header = self.freqs.get(pos).copied().unwrap_or(ENC_CONSTANT);
        pos += 1;
        if header == ENC_CONSTANT {
            let value = read_lenient(self.freqs, &mut pos).max(1);
            out[..count].fill(value);
        } else {
            let width = u32::from(header).min(32);
            let mask = if width == 32 { u64::from(u32::MAX) } else { (1u64 << width) - 1 };
            let mut acc = 0u64;
            let mut acc_bits = 0u32;
            for slot in out.iter_mut().take(count) {
                while acc_bits < width {
                    let byte = self.freqs.get(pos).copied().unwrap_or(0);
                    acc |= u64::from(byte) << acc_bits;
                    acc_bits += 8;
                    pos += 1;
                }
                *slot = ((acc & mask) as u32).max(1);
                acc >>= width;
                acc_bits -= width;
            }
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
            let count = self.decode_freq_block(index, &mut scratch);
            out.extend_from_slice(&scratch[..count]);
        }
    }

    /// Decodes into an owned [`PostingList`] (frequencies included).
    #[must_use]
    pub fn to_list(&self) -> PostingList {
        let mut ids = Vec::new();
        self.decode_into(&mut ids);
        let mut tfs = Vec::new();
        self.decode_freqs_into(&mut tfs);
        tfs.resize(ids.len(), 1);
        ids.into_iter().zip(tfs).collect()
    }
}

/// Appends `values` bitpacked at `width` bits each — the mirror of the
/// decoders' streaming bit buffer: values enter a u64 accumulator `width`
/// bits at a time and leave it as whole bytes.
fn pack_bits(values: &[u32], width: u32, out: &mut Vec<u8>) {
    let mut acc = 0u64;
    let mut acc_bits = 0u32;
    for &value in values {
        acc |= u64::from(value) << acc_bits;
        acc_bits += width;
        while acc_bits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    if acc_bits > 0 {
        out.push(acc as u8);
    }
}

/// Encodes one block of term frequencies: a constant block when every value
/// is equal (the tf=1 ocean costs two bytes per block), bitpacked at the
/// block's maximum width otherwise.
fn encode_freq_block(tfs: &[u32], out: &mut Vec<u8>) {
    let max = tfs.iter().copied().max().unwrap_or(1).max(1);
    let min = tfs.iter().copied().min().unwrap_or(1);
    if min == max {
        out.push(ENC_CONSTANT);
        write_varint(out, u64::from(max));
        return;
    }
    let width = bits_needed(max).max(1);
    out.push(width as u8);
    pack_bits(tfs, width, out);
}

fn encode_block(block: &[FileId], data: &mut Vec<u8>) {
    write_varint(data, u64::from(block[0].as_u32()));
    if block.len() == 1 {
        return;
    }
    let mut gaps = [0u32; BLOCK_SIZE];
    let gaps = &mut gaps[..block.len() - 1];
    for (gap, pair) in gaps.iter_mut().zip(block.windows(2)) {
        *gap = pair[1].as_u32() - pair[0].as_u32();
    }
    let max_gap = gaps.iter().copied().max().unwrap_or(0);
    if gaps.iter().all(|&gap| gap == max_gap) {
        // Every gap is the same: store it once.  This is both the smallest
        // and the fastest-to-decode block shape.
        data.push(ENC_CONSTANT);
        write_varint(data, u64::from(max_gap));
        return;
    }
    let width = bits_needed(max_gap).max(1);
    let packed_bytes = (gaps.len() * width as usize).div_ceil(8);
    if packed_bytes < gaps.iter().map(|&gap| varint_len(gap)).sum() {
        data.push(width as u8);
        pack_bits(gaps, width, data);
    } else {
        data.push(ENC_VARINT);
        gaps.iter().for_each(|&gap| write_varint(data, u64::from(gap)));
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
}

/// How the cursor's current block is represented.
#[derive(Debug, Clone, Copy)]
enum BlockShape {
    /// `id(pos) = first + pos * gap`: served arithmetically, never decoded.
    Constant {
        /// First id of the block.
        first: u32,
        /// The (uniform) gap; 0 only for single-id blocks.
        gap: u32,
    },
    /// Varint or bitpacked payload: materialised into the scratch buffer.
    Packed,
}

/// A [`PostingCursor`] over a [`CompressedView`].  `seek` routes
/// through the skip table, so blocks between the current position and the
/// target are never touched; arithmetic-progression blocks are served
/// without materialising any ids, and packed blocks decode one at a time
/// into a reusable scratch buffer.
#[derive(Debug, Clone)]
pub struct BlockCursor<'a> {
    postings: CompressedView<'a>,
    /// Index of the current block; `== block_count()` when exhausted.
    block: usize,
    /// Position within the current block.
    pos: usize,
    /// Ids in the current block (0 when exhausted).
    len_in_block: usize,
    /// Representation of the current block.
    shape: BlockShape,
    /// Decode buffer for `Packed` blocks, allocated on first use and reused
    /// across every block the cursor visits.  Cursors over lists whose
    /// blocks are all arithmetic progressions never allocate at all.
    scratch: Vec<FileId>,
    /// Frequency decode buffer; filled lazily, only for blocks whose
    /// frequencies are actually read.
    freq_scratch: Vec<u32>,
    /// Whether `freq_scratch` holds the current block's frequencies.
    freqs_loaded: bool,
    /// Dequantized score bound of the current block: block-max evaluation
    /// asks for it once per posting, the division is paid once per block.
    bound: f32,
    /// Blocks this cursor has entered (decoded or served arithmetically);
    /// `block_count() - blocks_visited()` is the number the skip table let
    /// it jump over entirely.
    visited: u64,
}

impl<'a> BlockCursor<'a> {
    /// Creates a cursor positioned on the first id.
    #[must_use]
    pub fn new(postings: CompressedView<'a>) -> Self {
        let mut cursor = BlockCursor {
            postings,
            block: 0,
            pos: 0,
            len_in_block: 0,
            shape: BlockShape::Packed,
            scratch: Vec::new(),
            freq_scratch: Vec::new(),
            freqs_loaded: false,
            bound: 0.0,
            visited: 0,
        };
        cursor.enter_block(0);
        cursor
    }

    fn exhausted(&self) -> bool {
        self.block >= self.postings.block_count()
    }

    fn enter_block(&mut self, block: usize) {
        self.block = block;
        self.pos = 0;
        self.freqs_loaded = false;
        if block >= self.postings.block_count() {
            self.len_in_block = 0;
            self.bound = 0.0;
            return;
        }
        self.visited += 1;
        self.bound = self.postings.block_score_bound(block);
        self.len_in_block = self.postings.block_len(block);
        self.shape = self.postings.block_shape(block);
        if matches!(self.shape, BlockShape::Packed) {
            if self.scratch.len() < BLOCK_SIZE {
                self.scratch.resize(BLOCK_SIZE, FileId(0));
            }
            let decoded = self.postings.decode_block(block, &mut self.scratch);
            debug_assert_eq!(decoded, self.len_in_block);
        }
    }

    /// The term frequency of the posting the cursor is on (1 when the list
    /// does not track frequencies).  Decodes the current block's frequency
    /// payload on first access; blocks the skip table jumps over never pay.
    #[must_use]
    pub fn current_tf(&mut self) -> u32 {
        if self.exhausted() || self.pos >= self.len_in_block {
            return 1;
        }
        if self.postings.freqs.is_empty() {
            return 1;
        }
        if !self.freqs_loaded {
            if self.freq_scratch.len() < BLOCK_SIZE {
                self.freq_scratch.resize(BLOCK_SIZE, 1);
            }
            self.postings.decode_freq_block(self.block, &mut self.freq_scratch);
            self.freqs_loaded = true;
        }
        self.freq_scratch[self.pos]
    }

    /// The dequantized score upper bound of the block the cursor is on
    /// (the list maximum when unscored, zero when exhausted).
    #[must_use]
    pub fn current_block_bound(&self) -> f32 {
        self.bound
    }

    /// The true maximum posting score of the underlying list (`0.0` when
    /// the list is unscored).
    #[must_use]
    pub fn list_max_score(&self) -> f32 {
        self.postings.max_score
    }

    /// The last id of the block the cursor is on, or `None` when exhausted.
    /// Block-max evaluation uses this as the boundary to seek past when the
    /// current block's bound cannot reach the heap threshold.
    #[must_use]
    pub fn current_block_last(&self) -> Option<FileId> {
        (!self.exhausted() && self.len_in_block > 0).then(|| self.block_last())
    }

    /// Blocks this cursor actually entered so far.
    #[must_use]
    pub fn blocks_visited(&self) -> u64 {
        self.visited
    }

    /// Total blocks in the underlying list.
    #[must_use]
    pub fn total_blocks(&self) -> usize {
        self.postings.block_count()
    }

    fn id_at(&self, pos: usize) -> FileId {
        match self.shape {
            BlockShape::Constant { first, gap } => {
                FileId(first.wrapping_add(gap.wrapping_mul(pos as u32)))
            }
            BlockShape::Packed => self.scratch[pos],
        }
    }

    fn block_last(&self) -> FileId {
        self.id_at(self.len_in_block - 1)
    }

    /// First in-block position at or past `from` whose id is `>= target`.
    fn position_in_block(&self, from: usize, target: u32) -> usize {
        match self.shape {
            BlockShape::Constant { first, gap } => {
                if target <= first || gap == 0 {
                    from
                } else {
                    from.max(((target - first).div_ceil(gap)) as usize)
                }
            }
            BlockShape::Packed => {
                from + self.scratch[from..self.len_in_block].partition_point(|&id| id.0 < target)
            }
        }
    }
}

impl PostingCursor for BlockCursor<'_> {
    fn current(&self) -> Option<FileId> {
        (self.pos < self.len_in_block).then(|| self.id_at(self.pos))
    }

    fn advance(&mut self) {
        if self.exhausted() {
            return;
        }
        self.pos += 1;
        if self.pos >= self.len_in_block {
            self.enter_block(self.block + 1);
        }
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
                self.enter_block(self.postings.block_count());
                return None;
            }
        }
        self.pos = self.position_in_block(self.pos, target.as_u32());
        debug_assert!(self.pos < self.len_in_block, "skip table guaranteed containment");
        self.current()
    }

    fn len(&self) -> usize {
        self.postings.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(v: &[u32]) -> Vec<FileId> {
        v.iter().map(|&i| FileId(i)).collect()
    }

    fn decode(cp: &CompressedPostings) -> Vec<FileId> {
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
        assert!(decode(&cp).is_empty());
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
        assert_eq!(decode(&cp), dense);
        // Consecutive ids pack at 1 bit each plus skip/header overhead.
        assert!(
            cp.view().byte_size() * 2 < dense.len(),
            "dense run should beat 0.5 bytes/id, got {} bytes for {} ids",
            cp.view().byte_size(),
            dense.len()
        );
    }

    #[test]
    fn sparse_lists_choose_varint() {
        let sparse: Vec<FileId> = (0..500).map(|i| FileId(i * 100_003)).collect();
        let cp = CompressedPostings::from_sorted(&sparse);
        assert_eq!(decode(&cp), sparse);
        // Still far below the 4 bytes/id raw form.
        assert!(cp.view().byte_size() < sparse.len() * 4);
    }

    #[test]
    fn singleton_lists_cost_one_varint_and_no_skip_entry() {
        let cp = CompressedPostings::from_sorted(&ids(&[42]));
        assert_eq!(cp.view().data().len(), 1, "one varint byte for id 42");
        assert!(cp.view().skips().is_empty(), "single-block lists carry no skip table");
        assert_eq!(cp.view().byte_size(), 1);
        assert_eq!(decode(&cp), ids(&[42]));
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
        assert_eq!(cp.view().to_list().tf_of(FileId(2)), Some(2));
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

    #[test]
    fn block_score_bounds_are_admissible() {
        let all: Vec<FileId> = (0..300).map(FileId).collect();
        let scores: Vec<f32> = (0..300).map(|i| 0.1 + (i % 50) as f32 * 0.03).collect();
        let mut cp = CompressedPostings::from_counted(&all, &[]);
        assert_eq!(cp.view().max_score(), 0.0);
        assert_eq!(cp.view().block_score_bound(0), 0.0);
        cp.score_blocks(&scores);
        let list_max = scores.iter().fold(0.0f32, |a, &b| a.max(b));
        assert_eq!(cp.view().max_score(), list_max);
        assert_eq!(cp.view().block_scores().len(), 300usize.div_ceil(BLOCK_SIZE));
        for (b, chunk) in scores.chunks(BLOCK_SIZE).enumerate() {
            let true_max = chunk.iter().fold(0.0f32, |a, &s| a.max(s));
            let bound = cp.view().block_score_bound(b);
            assert!(bound >= true_max, "block {b}: bound {bound} below true max {true_max}");
            assert!(bound <= list_max * 1.01, "block {b}: bound {bound} too loose");
        }
        let mut cursor = cp.view().cursor();
        assert!(cursor.current_block_bound() > 0.0);
        assert_eq!(cursor.current_block_last(), Some(FileId(BLOCK_SIZE as u32 - 1)));
        assert_eq!(cursor.total_blocks(), 3);
        assert_eq!(cursor.blocks_visited(), 1);
        cursor.seek(FileId(299));
        assert_eq!(cursor.blocks_visited(), 2, "middle block skipped untouched");
    }

    proptest! {
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
            prop_assert_eq!(decode(&cp), all.clone());
            prop_assert_eq!(cp.view().to_list().doc_ids(), all.as_slice());
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
