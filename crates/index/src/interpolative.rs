//! Short posting lists — [`SHORT_LIST_MIN`](crate::SHORT_LIST_MIN) to
//! [`BLOCK_SIZE`] postings, one block's worth — coded close to their entropy.
//!
//! A list of `n` ids below a universe `u` that the reader knows before it
//! reads the list (the shard's id bound) is one of `C(u, n)` sets, and
//! binary interpolative coding (Moffat & Stuiver, *Inf. Retrieval* 2000)
//! spends within a few per cent of `log₂ C(u, n)` bits on it.  A short list
//! is one stream of bits, packed lowest first as [`crate::block`] packs its
//! values, padded to a byte at its end:
//!
//! ```text
//! ids    the middle id of the run, as its offset in the range the run's
//!        bounds and the ids on either side of it leave it (a truncated
//!        binary code: ⌊log₂ r⌋ or one more bit for a range of r), then the
//!        run left of it below that id, then the run right of it above;
//!        from the whole list over [0, u) on.  A run as long as its range —
//!        every document — takes no bits at all.
//! tfs    (only when some tf is above 1) k − 1, for the k postings whose tf
//!        is above 1, as a truncated binary code below n; their positions
//!        in the list, coded as the ids are, over [0, n); then each one's
//!        tf − 1 as an Elias-γ code (⌊log₂ x⌋ zeros, a one, the bits of x
//!        below its top one).
//! ```
//!
//! A short list is always decoded whole, once per cursor, so the recursion's
//! cost is paid once per list and query.  Decoding is total: whatever the
//! bytes, `n` ids come out strictly ascending below the universe (below `n`
//! when the universe is smaller, which a shard refuses), every tf is at
//! least 1, bits past the bytes read as zeros, and nothing panics.

use crate::block::BLOCK_SIZE;
use crate::doc_table::FileId;

/// The largest universe there is: every `u32` an id.
pub(crate) const MAX_UNIVERSE: u64 = 1 << 32;

/// Appends the stream of `ids` (at most [`BLOCK_SIZE`] of them, ascending
/// strictly below `universe`) and, when some of `tfs` — parallel to `ids`,
/// or empty for every tf 1 — is above 1, of the tfs.  Returns the bits the
/// ids took, where the tfs start.
pub(crate) fn encode(ids: &[FileId], tfs: &[u32], universe: u64, out: &mut Vec<u8>) -> usize {
    debug_assert!(ids.len() <= BLOCK_SIZE && (tfs.is_empty() || tfs.len() == ids.len()));
    assert!(
        ids.last().is_none_or(|last| u64::from(last.as_u32()) < universe),
        "a short list's ids lie below the universe it is coded over"
    );
    let mut values = [0u32; BLOCK_SIZE];
    let values = &mut values[..ids.len()];
    values.iter_mut().zip(ids).for_each(|(value, id)| *value = id.as_u32());
    let mut bits = Bits { out, acc: 0, len: 0, written: 0 };
    bits.run(values, 0, universe);
    let id_bits = bits.written + bits.len as usize;
    let mut above = [0u32; BLOCK_SIZE];
    let mut count = 0;
    for (position, _) in tfs.iter().enumerate().filter(|&(_, &tf)| tf > 1) {
        above[count] = position as u32;
        count += 1;
    }
    if count > 0 {
        let n = ids.len() as u64;
        bits.below(count as u64 - 1, n);
        bits.run(&above[..count], 0, n);
        for &position in &above[..count] {
            bits.gamma(u64::from(tfs[position as usize] - 1));
        }
    }
    bits.finish();
    id_bits
}

/// Decodes the `out.len()` ids (at most [`BLOCK_SIZE`]; slots past that
/// are left as they were) of the short list whose stream is `bytes`, over
/// `universe`; returns the bit its tfs start at.
pub fn decode_ids(bytes: &[u8], universe: u64, out: &mut [FileId]) -> usize {
    let keep = out.len().min(BLOCK_SIZE);
    let out = &mut out[..keep];
    let n = out.len() as u64;
    let mut read = Read::new(bytes, 0);
    read.run(out, 0, universe.min(MAX_UNIVERSE).max(n), FileId);
    read.at()
}

/// Decodes the `out.len()` tfs (at most [`BLOCK_SIZE`], as above) of the
/// short list whose stream is `bytes` and whose tfs start at bit `from`
/// (what [`decode_ids`] returned): a list that stores tfs stores some above
/// 1.
pub fn decode_tfs(bytes: &[u8], from: usize, out: &mut [u32]) {
    let keep = out.len().min(BLOCK_SIZE);
    let out = &mut out[..keep];
    out.fill(1);
    let n = out.len() as u64;
    if n == 0 {
        return;
    }
    let mut read = Read::new(bytes, from);
    let count = read.below(n) as usize + 1;
    // Positions below 128.
    let mut above = [0u8; BLOCK_SIZE];
    read.run(&mut above[..count], 0, n, |position| position as u8);
    for &position in &above[..count] {
        let tf = read.gamma() + 1;
        out[usize::from(position)] = u32::try_from(tf).unwrap_or(u32::MAX);
    }
}

/// A stream being written: whole 32-bit words go out as they fill.
struct Bits<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    len: u32,
    /// Bits already in `out`.
    written: usize,
}

impl Bits<'_> {
    /// The low `width` (at most 32) bits of `value`.
    fn put(&mut self, value: u64, width: u32) {
        self.acc |= (value & ((1 << width) - 1)) << self.len;
        self.len += width;
        if self.len >= 32 {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            (self.acc, self.len, self.written) = (self.acc >> 32, self.len - 32, self.written + 32);
        }
    }

    /// `value` below `range` (at most 2³²) in the truncated binary code: the
    /// `u = 2^(k+1) − range` smallest values in `k = ⌊log₂ range⌋` bits, the
    /// others as `value + u` in `k + 1`, its top `k` bits first — which
    /// read as a number of at least `u`.
    fn below(&mut self, value: u64, range: u64) {
        if range <= 1 {
            return;
        }
        let k = 63 - range.leading_zeros();
        let short = (2 << k) - range;
        if value < short {
            self.put(value, k);
        } else {
            let code = value + short;
            self.put(code >> 1, k);
            self.put(code & 1, 1);
        }
    }

    /// `values`, ascending strictly inside `[low, end)`, middle first.
    fn run(&mut self, values: &[u32], low: u64, end: u64) {
        let n = values.len() as u64;
        if end - low == n {
            return;
        }
        let Some(&middle) = values.get(values.len() / 2) else { return };
        let (left, right) = values.split_at(values.len() / 2);
        let (middle, least) = (u64::from(middle), low + left.len() as u64);
        self.below(middle - least, end - low - n + 1);
        self.run(left, low, middle);
        self.run(&right[1..], middle + 1, end);
    }

    /// `value` (at least 1, below 2³²) in the Elias-γ code.
    fn gamma(&mut self, value: u64) {
        let top = 63 - value.leading_zeros();
        self.put(1 << top, top + 1);
        self.put(value, top);
    }

    fn finish(self) {
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..self.len.div_ceil(8) as usize]);
    }
}

/// The eight bytes from `at` on of a stream that ends sooner: zeros past
/// its end.
#[cold]
fn last_word(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    let rest = bytes.get(at..).unwrap_or(&[]);
    word[..rest.len()].copy_from_slice(rest);
    u64::from_le_bytes(word)
}

/// A stream being read: the bits not yet taken are the lowest `avail` of
/// `buf`, and bytes from `next` on — zeros past the end.
struct Read<'a> {
    bytes: &'a [u8],
    next: usize,
    buf: u64,
    avail: u32,
}

impl<'a> Read<'a> {
    /// The stream `bytes` from bit `at` on.
    fn new(bytes: &'a [u8], at: usize) -> Self {
        let mut read = Read { bytes, next: at / 8, buf: 0, avail: 0 };
        read.refill();
        read.skip((at % 8) as u32);
        read
    }

    /// The bit the next value starts at.
    fn at(&self) -> usize {
        self.next * 8 - self.avail as usize
    }

    /// Tops `buf` up to at least 56 bits: the next eight bytes go in behind
    /// the bits it holds, and as many whole bytes as fit are counted taken
    /// (the part of one that does not fit goes in again, at the same place,
    /// next time).
    #[inline(always)]
    fn refill(&mut self) {
        let word = match self.bytes.get(self.next..self.next + 8) {
            Some(word) => u64::from_le_bytes(word.try_into().expect("eight bytes")),
            None => last_word(self.bytes, self.next),
        };
        self.buf |= word << self.avail;
        let taken = (63 - self.avail) / 8;
        self.next += taken as usize;
        self.avail += taken * 8;
    }

    /// Drops the next `width` (at most `avail`) bits.
    #[inline(always)]
    fn skip(&mut self, width: u32) {
        self.buf >>= width;
        self.avail -= width;
    }

    /// The next `width` (at most 32) bits.
    #[inline(always)]
    fn take(&mut self, width: u32) -> u64 {
        if self.avail < 32 {
            self.refill();
        }
        let value = self.buf & ((1 << width) - 1);
        self.skip(width);
        value
    }

    /// A value below `range` (at most 2³²), as [`Bits::below`] wrote it:
    /// below `range` whatever the bits.  Its `k` bits and the one after are
    /// read at once, and whether that one belongs to it is a mask, not a
    /// branch: the two lengths come about equally often.
    #[inline(always)]
    fn below(&mut self, range: u64) -> u64 {
        if range <= 1 {
            return 0;
        }
        if self.avail < 33 {
            self.refill();
        }
        let k = 63 - range.leading_zeros();
        let short = (2 << k) - range;
        let top = self.buf & ((1 << k) - 1);
        let long = u64::from(top >= short);
        let extra = top.wrapping_add(self.buf >> k & 1).wrapping_sub(short);
        self.skip(k + long as u32);
        top.wrapping_add(extra & 0u64.wrapping_sub(long))
    }

    /// `values.len()` values ascending strictly inside `[low, end)`, which
    /// holds at least that many, as [`Bits::run`] wrote them; each stored as
    /// `make` makes it of its `u32`.  Middle first, then the run left of it,
    /// then the run right of it — by hand, the runs right of the middles
    /// waiting on a stack (one a level: eight levels for [`BLOCK_SIZE`]
    /// values, of which there are at most), and the stream's state in
    /// registers throughout.
    #[inline]
    fn run<T>(&mut self, values: &mut [T], low: u64, end: u64, make: impl Fn(u32) -> T + Copy) {
        debug_assert!(values.len() <= BLOCK_SIZE);
        let mut waiting = [(0usize, 0usize, 0u64, 0u64); 8];
        let mut depth = 0;
        let (mut from, mut to, mut low, mut end) = (0, values.len(), low, end);
        loop {
            let n = (to - from) as u64;
            if end - low == n {
                let run = values[from..to].iter_mut().zip(low..);
                run.for_each(|(value, id)| *value = make(id as u32));
            } else if n > 0 {
                let at = from + (to - from) / 2;
                let middle = low + (at - from) as u64 + self.below(end - low - n + 1);
                values[at] = make(middle as u32);
                if at + 1 < to {
                    waiting[depth] = (at + 1, to, middle + 1, end);
                    depth += 1;
                }
                if from < at {
                    (to, end) = (at, middle);
                    continue;
                }
            }
            let Some(below) = depth.checked_sub(1) else { return };
            depth = below;
            (from, to, low, end) = waiting[depth];
        }
    }

    /// A value of at least 1 in the Elias-γ code: at most 32 bits long, so
    /// that a run of zeros past the bytes reads as a large value, not a
    /// longer one.
    fn gamma(&mut self) -> u64 {
        if self.avail < 32 {
            self.refill();
        }
        let top = self.buf.trailing_zeros().min(31);
        self.skip(top + 1);
        1 << top | self.take(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(values: &[u32]) -> Vec<FileId> {
        values.iter().copied().map(FileId).collect()
    }

    /// `ids` and `tfs` encoded over `universe` and decoded again; the
    /// stream's bytes.
    fn round_trip(list: &[FileId], tfs: &[u32], universe: u64) -> usize {
        let mut bytes = Vec::new();
        let id_bits = encode(list, tfs, universe, &mut bytes);
        let mut out = vec![FileId(u32::MAX); list.len()];
        assert_eq!(decode_ids(&bytes, universe, &mut out), id_bits);
        assert_eq!(out, list);
        let mut decoded = vec![0; list.len()];
        decode_tfs(&bytes, id_bits, &mut decoded);
        if tfs.iter().any(|&tf| tf > 1) {
            assert_eq!(decoded, tfs);
        }
        bytes.len()
    }

    #[test]
    fn edges_round_trip_at_their_entropy() {
        // Every document: no bits.  One id: ⌊log₂ u⌋ or one more.  The
        // first and the last id of the universe.
        assert_eq!(round_trip(&ids(&[0, 1, 2, 3]), &[], 4), 0);
        let all: Vec<FileId> = (0..128).map(FileId).collect();
        assert_eq!(round_trip(&all, &[], 128), 0);
        assert_eq!(round_trip(&ids(&[0]), &[], 1 << 14), 2);
        assert_eq!(round_trip(&ids(&[(1 << 14) - 1]), &[], 1 << 14), 2);
        assert_eq!(round_trip(&ids(&[0, u32::MAX]), &[], MAX_UNIVERSE), 8);
        // 128 ids over 12 000, about 93 apart: 1 144 bits, where log₂
        // C(12 000, 128) is 1 018 — a set this regular codes a little above
        // what a typical one of its size takes.
        let spread: Vec<FileId> = (0..128).map(|i| FileId(i * 93 + i % 7)).collect();
        assert_eq!(round_trip(&spread, &[], 12_000), 1_144 / 8);
        // tfs all 1 (none stored), one above 1, every one above 1, the
        // largest.
        let four = ids(&[3, 9, 10, 40]);
        assert_eq!(round_trip(&four, &[1, 1, 1, 1], 41), round_trip(&four, &[], 41));
        round_trip(&four, &[1, 1, 7, 1], 41);
        round_trip(&four, &[2, 3, 900, 2], 41);
        round_trip(&four, &[u32::MAX, 1, 2, u32::MAX], 41);
        round_trip(&all, &vec![2; 128], 128);
    }

    #[test]
    fn truncated_binary_codes_every_value_below_their_range() {
        for range in [2u64, 3, 5, 6, 7, 8, 100, 12_000, MAX_UNIVERSE] {
            let values = [0, 1, range / 2, range - 2, range - 1];
            let mut bytes = Vec::new();
            let mut bits = Bits { out: &mut bytes, acc: 0, len: 0, written: 0 };
            values.iter().for_each(|&value| bits.below(value, range));
            bits.finish();
            let mut read = Read::new(&bytes, 0);
            for value in values {
                assert_eq!(read.below(range), value, "{value} below {range}");
            }
        }
    }

    proptest! {
        /// Any short list round-trips over any universe above its ids.
        #[test]
        fn short_lists_round_trip(
            raw in proptest::collection::vec((any::<u32>(), 1u32..6), 1..=BLOCK_SIZE),
            headroom in 0u64..3,
            dense in any::<bool>(),
        ) {
            let mut raw = raw;
            if dense {
                raw.iter_mut().enumerate().for_each(|(i, (id, _))| *id = 5_000 + i as u32 * 3);
            }
            raw.sort_unstable_by_key(|&(id, _)| id);
            raw.dedup_by_key(|&mut (id, _)| id);
            let list: Vec<FileId> = raw.iter().map(|&(id, _)| FileId(id)).collect();
            let tfs: Vec<u32> = raw.iter().map(|&(_, tf)| tf).collect();
            let universe = (u64::from(list.last().unwrap().as_u32()) + 1 + headroom).min(MAX_UNIVERSE);
            round_trip(&list, &tfs, universe);
        }

        /// Arbitrary bytes decode, as a short list of `n` postings over a
        /// universe `u ≥ n`, to `n` strictly ascending ids below `u` and tfs
        /// of at least 1, and never panic; over a universe below `n`, to ids
        /// below `n`.
        #[test]
        fn arbitrary_bytes_decode_to_ascending_ids_below_the_universe(
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
            n in 0usize..=BLOCK_SIZE,
            universe in (0u8..3, any::<u64>()).prop_map(|(pick, raw)| match pick {
                0 => raw % 300,
                1 => MAX_UNIVERSE,
                _ => raw,
            }),
        ) {
            let mut out = vec![FileId(7); n];
            let from = decode_ids(&bytes, universe, &mut out);
            prop_assert!(out.windows(2).all(|pair| pair[0] < pair[1]));
            let bound = universe.min(MAX_UNIVERSE).max(n as u64);
            prop_assert!(out.iter().all(|id| u64::from(id.as_u32()) < bound));
            let mut tfs = vec![0; n];
            decode_tfs(&bytes, from, &mut tfs);
            prop_assert!(tfs.iter().all(|&tf| tf >= 1));
        }
    }
}
