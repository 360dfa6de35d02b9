//! LEB128 varints: the one writer and the one checking reader behind every
//! encoded form — posting blocks, sealed term entries, segment front matter
//! — and the heads that pack two small counts of a front-coded term or path
//! in one byte ([`write_head`]).
//!
//! [`Reader`] is for bytes that cross a trust boundary: truncated, over-long
//! and out-of-range input is an error.  Block payloads a shard has already
//! validated are decoded on the query path by `read_lenient`, which cannot
//! fail.

use crate::block::{corrupt, BlockFormatError};

/// Appends `value` in LEB128.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push((value & 0x7f) as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// A head field's nibble that says "a varint follows": the field is 15 or
/// more, and the varint holds it less 15.
const ESCAPE: u64 = 15;

/// Appends a head: two small counts in one byte, `low` in its low nibble and
/// `high` in its high one, where each is below 15.  A nibble of 15 is an
/// escape — that field is 15 plus a varint behind the byte (`low`'s first),
/// so every value has one encoding.  Front coding writes one a dictionary
/// term (bytes shared, bytes stored) and one a document path.
pub fn write_head(out: &mut Vec<u8>, low: u64, high: u64) {
    out.push((low.min(ESCAPE) | high.min(ESCAPE) << 4) as u8);
    for field in [low, high] {
        if field >= ESCAPE {
            write_varint(out, field - ESCAPE);
        }
    }
}

/// [`Reader::head`] without failing, for a head a reader has already
/// checked: truncated input yields what was read so far.
pub(crate) fn read_head_lenient(data: &[u8], pos: &mut usize) -> (usize, usize) {
    let byte = data.get(*pos).copied().unwrap_or(0);
    *pos += 1;
    let mut field = |nibble: u8| match u64::from(nibble) {
        ESCAPE => ESCAPE as usize + read_lenient(data, pos) as usize,
        small => small as usize,
    };
    let low = field(byte & 0xf);
    (low, field(byte >> 4))
}

/// Bytes [`write_varint`] spends on `value`.
pub(crate) fn varint_len(value: u32) -> usize {
    (32 - (value | 1).leading_zeros() as usize).div_ceil(7)
}

/// Reads one value without failing: truncated input yields what was read so
/// far, excess bits are dropped.
pub(crate) fn read_lenient(data: &[u8], pos: &mut usize) -> u32 {
    let mut value: u32 = 0;
    let mut shift = 0u32;
    while *pos < data.len() && shift < 35 {
        let byte = data[*pos];
        *pos += 1;
        value |= u32::from(byte & 0x7f) << shift.min(31);
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    value
}

/// The bytes of the varint that opens `word` (eight bytes, little-endian):
/// one more than the index of its first byte without a continuation bit, 8
/// when every byte has one.
#[inline]
pub(crate) fn varint_len_in(word: u64) -> usize {
    ((!word & 0x8080_8080_8080_8080).trailing_zeros() as usize + 1) / 8
}

/// [`Reader::u32`] at `bytes[*at..]`, moving `at` past it; `None` where the
/// reader fails.  For loops that read many values and report one error.
#[inline(always)]
pub(crate) fn checked_u32(bytes: &[u8], at: &mut usize) -> Option<u32> {
    // With eight bytes at hand, a value of up to four bytes is found and
    // assembled without a branch per byte.
    if let Some(window) = bytes.get(*at..*at + 8) {
        let word = u64::from_le_bytes(window.try_into().expect("eight bytes"));
        let len = varint_len_in(word);
        if len <= 4 {
            let word = word & ((1u64 << (8 * len)) - 1);
            let value = (word & 0x7f)
                | ((word >> 1) & (0x7f << 7))
                | ((word >> 2) & (0x7f << 14))
                | ((word >> 3) & (0x7f << 21));
            *at += len;
            return Some(value as u32);
        }
    }
    let mut reader = Reader::new(bytes, *at);
    let value = reader.u32().ok()?;
    *at = reader.pos();
    Some(value)
}

/// A bounds-checked read position over untrusted bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading `bytes` at `pos` (which must not lie past their end).
    #[must_use]
    #[inline]
    pub fn new(bytes: &'a [u8], pos: usize) -> Self {
        Reader { bytes, pos }
    }

    /// The current position.
    #[must_use]
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[must_use]
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// One LEB128 value.
    ///
    /// # Errors
    ///
    /// Fails on truncated input and on encodings that overflow 64 bits.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, BlockFormatError> {
        // Most values take one byte.
        if let Some(&byte) = self.bytes.get(self.pos).filter(|&&byte| byte < 0x80) {
            self.pos += 1;
            return Ok(u64::from(byte));
        }
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = *self.bytes.get(self.pos).ok_or_else(|| corrupt("truncated varint"))?;
            self.pos += 1;
            if shift == 63 && byte > 1 {
                break;
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(corrupt("varint overflows u64"))
    }

    /// One LEB128 value that must fit 32 bits.
    ///
    /// # Errors
    ///
    /// Fails like [`Reader::u64`], and on larger values.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, BlockFormatError> {
        let value = self.u64()?;
        u32::try_from(value).map_err(|_| corrupt(format!("value {value} does not fit in u32")))
    }

    /// A head as [`write_head`] writes it: its low field, then its high one.
    ///
    /// # Errors
    ///
    /// Fails on truncated input, and on an escaped field past `u64`.
    #[inline]
    pub fn head(&mut self) -> Result<(u64, u64), BlockFormatError> {
        let byte = *self.bytes.get(self.pos).ok_or_else(|| corrupt("truncated head"))?;
        self.pos += 1;
        let mut field = |nibble: u8| match u64::from(nibble) {
            ESCAPE => self.u64()?.checked_add(ESCAPE).ok_or_else(|| corrupt("head overflows u64")),
            small => Ok(small),
        };
        let low = field(byte & 0xf)?;
        Ok((low, field(byte >> 4)?))
    }

    /// An element count, checked against the bytes left: every element costs
    /// at least `min_bytes`, so a larger count is corrupt and must never
    /// size an allocation.
    ///
    /// # Errors
    ///
    /// Fails like [`Reader::u64`], and on a count the bytes cannot hold.
    pub fn count(&mut self, min_bytes: usize, what: &str) -> Result<usize, BlockFormatError> {
        let (count, left) = (self.u64()?, self.remaining());
        usize::try_from(count).ok().filter(|&c| c <= left / min_bytes).ok_or_else(|| {
            corrupt(format!("{what} count {count} cannot fit in the {left} bytes left"))
        })
    }

    /// The next `len` bytes; `what` names them in the error.
    ///
    /// # Errors
    ///
    /// Fails when fewer than `len` bytes are left.
    #[inline]
    pub fn take(&mut self, len: u64, what: &str) -> Result<&'a [u8], BlockFormatError> {
        let left = self.remaining();
        let len = usize::try_from(len).ok().filter(|&len| len <= left).ok_or_else(|| {
            corrupt(format!("{what} of {len} bytes cannot fit in the {left} bytes left"))
        })?;
        let taken = &self.bytes[self.pos..][..len];
        self.pos += len;
        Ok(taken)
    }

    /// Moves on to `pos`, which must lie between here and the end.
    pub(crate) fn skip_to(&mut self, pos: usize) {
        debug_assert!((self.pos..=self.bytes.len()).contains(&pos));
        self.pos = pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encoded(value: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        write_varint(&mut buf, value);
        buf
    }

    #[test]
    fn lengths_match_the_writer_at_every_boundary() {
        for v in [0, 1, 127, 128, 16_383, 16_384, (1 << 21) - 1, 1 << 21, 1 << 28, u32::MAX] {
            assert_eq!(encoded(u64::from(v)).len(), varint_len(v), "{v}");
        }
    }

    #[test]
    fn truncated_overlong_and_oversized_input_are_errors() {
        let mut max = encoded(u64::MAX);
        assert_eq!(Reader::new(&max, 0).u64().unwrap(), u64::MAX);
        max.pop();
        assert!(Reader::new(&max, 0).u64().is_err());
        assert!(Reader::new(&[], 0).u64().is_err());
        assert!(Reader::new(&[0x80; 11], 0).u64().is_err());
        // A tenth byte with bits beyond 64 set also overflows.
        let mut overflow = vec![0xffu8; 9];
        overflow.push(0x7f);
        assert!(Reader::new(&overflow, 0).u64().is_err());
        assert!(Reader::new(&encoded(u64::from(u32::MAX) + 1), 0).u32().is_err());
        assert_eq!(Reader::new(&encoded(u64::from(u32::MAX)), 0).u32().unwrap(), u32::MAX);
    }

    #[test]
    fn heads_take_one_byte_below_fifteen_and_escape_above() {
        let head = |low: u64, high: u64| {
            let mut buf = Vec::new();
            write_head(&mut buf, low, high);
            buf
        };
        assert_eq!(head(0, 0), [0x00]);
        assert_eq!(head(14, 3), [0x3e]);
        assert_eq!(head(15, 14), [0xef, 0]);
        assert_eq!(head(2, 15 + 300), [0xf2, 0xac, 0x02]);
        assert_eq!(head(16, 17), [0xff, 1, 2]);
        for (low, high) in [(0, 0), (14, 14), (15, 15), (u64::MAX, 7), (3, u64::MAX)] {
            let buf = head(low, high);
            let mut reader = Reader::new(&buf, 0);
            assert_eq!(reader.head().unwrap(), (low, high));
            assert_eq!(reader.remaining(), 0);
        }
        let mut pos = 0;
        assert_eq!(read_head_lenient(&head(40, 2), &mut pos), (40, 2));
        assert_eq!(pos, 2);
        // The bytes a head says follow are taken whole or not at all.
        let mut buf = head(0, 11);
        buf.extend_from_slice(b"hello world");
        let mut reader = Reader::new(&buf, 0);
        let (_, len) = reader.head().unwrap();
        assert!(Reader::new(&buf[..5], 1).take(len, "greeting").is_err());
        assert!(reader.take(u64::MAX, "everything").is_err());
        assert_eq!((reader.pos(), reader.remaining()), (1, len as usize));
        assert_eq!(reader.take(len, "greeting").unwrap(), b"hello world");
        // An escape with its varint missing or cut, a second escape without
        // its own, and a field past `u64`.
        let past = [&[0x0f][..], &encoded(u64::MAX - 14)].concat();
        for hostile in [&[][..], &[0x0f], &[0xf0], &[0xf0, 0x80], &[0xff, 0], &past] {
            assert!(Reader::new(hostile, 0).head().is_err(), "{hostile:?}");
        }
    }

    proptest! {
        #[test]
        fn sequences_round_trip(values in proptest::collection::vec(any::<u64>(), 0..200)) {
            let mut buf = Vec::new();
            for &v in &values {
                write_varint(&mut buf, v);
            }
            let mut reader = Reader::new(&buf, 0);
            let mut lenient = 0;
            for &v in &values {
                prop_assert_eq!(reader.u64().unwrap(), v);
                if let Ok(small) = u32::try_from(v) {
                    let mut at = lenient;
                    prop_assert_eq!(read_lenient(&buf, &mut at), small);
                }
                lenient = reader.pos();
            }
            prop_assert_eq!(reader.remaining(), 0);
        }
    }
}
