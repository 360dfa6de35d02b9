//! The segment checksum: XXH64 (seed 0), streaming.
//!
//! A segment header carries one 64-bit hash of the payload behind it, computed
//! once by the writer as the pieces stream out and once by every reader over
//! the whole file.  XXH64 (Yann Collet's public specification,
//! <https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md>) consumes
//! the input as four independent lanes of 8-byte words, so the pass costs a
//! fraction of a nanosecond per byte where a byte-at-a-time hash pays one
//! dependent multiply per byte.
//!
//! It detects accidents — a truncated, torn or bit-flipped file.  It is not a
//! MAC: anyone who can write the file can recompute it, which is why the
//! parsers behind it still treat every length and offset as hostile.
//!
//! ```
//! use dsearch_persist::checksum::{xxh64, Xxh64};
//!
//! // Published test vector.
//! assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
//! // Streaming over any split equals the one-shot hash.
//! let mut hasher = Xxh64::new();
//! hasher.update(b"stream");
//! hasher.update(b"ing");
//! assert_eq!(hasher.finish(), xxh64(b"streaming"));
//! ```

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes consumed per round: one 8-byte word into each of the four lanes.
const STRIPE: usize = 32;

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"))
}

fn round(lane: u64, input: u64) -> u64 {
    lane.wrapping_add(input.wrapping_mul(PRIME_2)).rotate_left(31).wrapping_mul(PRIME_1)
}

fn merge_lane(hash: u64, lane: u64) -> u64 {
    (hash ^ round(0, lane)).wrapping_mul(PRIME_1).wrapping_add(PRIME_4)
}

/// A running XXH64 over the bytes fed to [`update`](Xxh64::update) so far.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// The input's tail that does not yet fill a stripe.
    pending: [u8; STRIPE],
    pending_len: usize,
    total_len: u64,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Xxh64 {
            lanes: [PRIME_1.wrapping_add(PRIME_2), PRIME_2, 0, 0u64.wrapping_sub(PRIME_1)],
            pending: [0; STRIPE],
            pending_len: 0,
            total_len: 0,
        }
    }
}

impl Xxh64 {
    /// A hasher over the empty input (seed 0).
    #[must_use]
    pub fn new() -> Self {
        Xxh64::default()
    }

    fn consume(lanes: &mut [u64; 4], stripe: &[u8]) {
        for (lane, input) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, word(input));
        }
    }

    /// Feeds the next `bytes` of the input.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = bytes.len().min(STRIPE - self.pending_len);
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < STRIPE {
                return;
            }
            Xxh64::consume(&mut self.lanes, &self.pending);
            self.pending_len = 0;
        }
        // Whole stripes are hashed where they lie; the lanes live in locals
        // for the loop so they stay in registers.
        let mut lanes = self.lanes;
        let mut stripes = bytes.chunks_exact(STRIPE);
        for stripe in &mut stripes {
            Xxh64::consume(&mut lanes, stripe);
        }
        self.lanes = lanes;
        let tail = stripes.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    /// The hash of everything fed so far (the hasher can keep going).
    #[must_use]
    pub fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut hash = if self.total_len >= STRIPE as u64 {
            let merged = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            [a, b, c, d].into_iter().fold(merged, merge_lane)
        } else {
            // Fewer than 32 bytes in all: the lanes never ran.
            PRIME_5
        };
        hash = hash.wrapping_add(self.total_len);

        let mut tail = &self.pending[..self.pending_len];
        while tail.len() >= 8 {
            hash = (hash ^ round(0, word(tail))).rotate_left(27).wrapping_mul(PRIME_1);
            hash = hash.wrapping_add(PRIME_4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let half = u32::from_le_bytes(tail[..4].try_into().expect("four bytes"));
            hash = (hash ^ u64::from(half).wrapping_mul(PRIME_1)).rotate_left(23);
            hash = hash.wrapping_mul(PRIME_2).wrapping_add(PRIME_3);
            tail = &tail[4..];
        }
        for &byte in tail {
            hash = (hash ^ u64::from(byte).wrapping_mul(PRIME_5)).rotate_left(11);
            hash = hash.wrapping_mul(PRIME_1);
        }

        hash ^= hash >> 33;
        hash = hash.wrapping_mul(PRIME_2);
        hash ^= hash >> 29;
        hash = hash.wrapping_mul(PRIME_3);
        hash ^ (hash >> 32)
    }
}

/// XXH64 (seed 0) of `bytes` in one call.
#[must_use]
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut hasher = Xxh64::new();
    hasher.update(bytes);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn published_vectors() {
        // Seed-0 vectors published with the reference implementation and its
        // ports: the empty input, inputs shorter than a word, a 39-byte one
        // (one stripe and a short tail) and a 63-byte one that runs a stripe
        // and every step of the tail.
        let vectors: [(&[u8], u64); 8] = [
            (b"", 0xEF46_DB37_51D8_E999),
            (b"a", 0xD24E_C4F1_A98C_6E5B),
            (b"as", 0x1C33_0FB2_D66B_E179),
            (b"asd", 0x631C_37CE_72A9_7393),
            (b"asdf", 0x4158_72F5_99CE_A71E),
            (b"abc", 0x44BC_2CF5_AD77_0999),
            (
                b"Call me Ishmael. Some years ago--never mind how long precisely-",
                0x02A2_E854_70D6_FD96,
            ),
            (b"Nobody inspects the spammish repetition", 0xFBCE_A83C_8A37_8BF1),
        ];
        for (input, expected) in vectors {
            assert_eq!(xxh64(input), expected, "{:?}", String::from_utf8_lossy(input));
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_4k_buffer_changes_the_hash() {
        let mut buffer: Vec<u8> =
            (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let clean = xxh64(&buffer);
        for at in 0..buffer.len() {
            for bit in 0..8 {
                buffer[at] ^= 1 << bit;
                assert_ne!(xxh64(&buffer), clean, "byte {at} bit {bit}");
                buffer[at] ^= 1 << bit;
            }
        }
        assert_eq!(xxh64(&buffer), clean);
    }

    proptest! {
        /// Feeding the input in arbitrary pieces — empty ones, ones that end
        /// inside a stripe, ones that span several — is the one-shot hash.
        #[test]
        fn streaming_over_any_split_equals_one_shot(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
            cuts in proptest::collection::vec(0usize..600, 0..12),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|cut| cut.min(bytes.len())).collect();
            cuts.push(bytes.len());
            cuts.sort_unstable();
            let mut hasher = Xxh64::new();
            let mut from = 0;
            for cut in cuts {
                hasher.update(&bytes[from..cut]);
                from = cut;
            }
            prop_assert_eq!(hasher.finish(), xxh64(&bytes));
        }
    }
}
