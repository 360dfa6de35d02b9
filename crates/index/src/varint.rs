//! LEB128 varints: the one writer and the one checking reader behind every
//! encoded form — posting blocks, sealed term entries, segment front matter.
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

/// Appends a length-prefixed byte string.
pub fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
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

/// A bounds-checked read position over untrusted bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading `bytes` at `pos` (which must not lie past their end).
    #[must_use]
    pub fn new(bytes: &'a [u8], pos: usize) -> Self {
        Reader { bytes, pos }
    }

    /// The current position.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// One LEB128 value.
    ///
    /// # Errors
    ///
    /// Fails on truncated input and on encodings that overflow 64 bits.
    pub fn u64(&mut self) -> Result<u64, BlockFormatError> {
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
    pub fn u32(&mut self) -> Result<u32, BlockFormatError> {
        let value = self.u64()?;
        u32::try_from(value).map_err(|_| corrupt(format!("value {value} does not fit in u32")))
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
    pub fn take(&mut self, len: u64, what: &str) -> Result<&'a [u8], BlockFormatError> {
        let left = self.remaining();
        let len = usize::try_from(len).ok().filter(|&len| len <= left).ok_or_else(|| {
            corrupt(format!("{what} of {len} bytes cannot fit in the {left} bytes left"))
        })?;
        let taken = &self.bytes[self.pos..][..len];
        self.pos += len;
        Ok(taken)
    }

    /// A length-prefixed byte string of at most `max_len` bytes.
    ///
    /// # Errors
    ///
    /// Fails on a longer declared length, or like [`Reader::take`].
    pub fn bytes(&mut self, max_len: u64, what: &str) -> Result<&'a [u8], BlockFormatError> {
        let len = self.u64()?;
        if len > max_len {
            return Err(corrupt(format!("{what} of {len} bytes exceeds the limit {max_len}")));
        }
        self.take(len, what)
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
    fn byte_strings_enforce_limit_and_bounds() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, b"hello world");
        assert_eq!(Reader::new(&buf, 0).bytes(1024, "greeting").unwrap(), b"hello world");
        assert!(Reader::new(&buf, 0).bytes(4, "greeting").is_err());
        assert!(Reader::new(&buf[..5], 0).bytes(1024, "greeting").is_err());
        let mut reader = Reader::new(&buf, 0);
        assert!(reader.take(u64::MAX, "everything").is_err());
        assert_eq!((reader.pos(), reader.remaining()), (0, buf.len()));
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
