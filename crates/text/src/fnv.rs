//! Fowler–Noll–Vo hash functions.
//!
//! The paper's index and duplicate-elimination containers both use the FNV
//! hash function (Noll, <http://isthe.com/chongo/tech/comp/fnv/>). This module
//! provides its 64-bit FNV-1a variant, plus a [`std::hash::Hasher`]
//! implementation so the containers in [`crate::hashtable`] and the standard
//! collections can use it.
//!
//! # Example
//!
//! ```
//! use dsearch_text::fnv::{fnv1a_64, FNV64_OFFSET};
//!
//! // Published FNV test vectors: the empty string hashes to the offset
//! // basis, and "a" to this.
//! assert_eq!(fnv1a_64(b""), FNV64_OFFSET);
//! assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit FNV offset basis.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Computes the 64-bit FNV-1a hash of `bytes`.
#[inline]
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = FNV64_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV64_PRIME);
    }
    hash
}

/// A [`Hasher`] that implements 64-bit FNV-1a.
///
/// Use [`FnvBuildHasher`] to plug it into `HashMap`/`HashSet` or into the
/// containers in [`crate::hashtable`].
///
/// # Example
///
/// ```
/// use std::collections::HashMap;
/// use dsearch_text::fnv::FnvBuildHasher;
///
/// let mut map: HashMap<String, u32, FnvBuildHasher> = HashMap::default();
/// map.insert("term".to_owned(), 7);
/// assert_eq!(map["term"], 7);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher {
    state: u64,
}

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher { state: FNV64_OFFSET }
    }
}

impl FnvHasher {
    /// Creates a hasher seeded with the standard FNV-64 offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a hasher with an explicit initial state.
    ///
    /// Useful for chaining hashes across logically concatenated byte runs.
    #[must_use]
    pub fn with_state(state: u64) -> Self {
        FnvHasher { state }
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut hash = self.state;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV64_PRIME);
        }
        self.state = hash;
    }
}

/// A `BuildHasher` producing [`FnvHasher`]s, for use with standard collections.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    // Published test vectors from Landon Curt Noll's FNV pages.
    #[test]
    fn fnv1a_64_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hasher_matches_free_function() {
        let mut h = FnvHasher::new();
        h.write(b"hello world");
        assert_eq!(h.finish(), fnv1a_64(b"hello world"));
    }

    #[test]
    fn hasher_is_incremental() {
        let mut h = FnvHasher::new();
        h.write(b"hello ");
        h.write(b"world");
        assert_eq!(h.finish(), fnv1a_64(b"hello world"));
    }

    #[test]
    fn build_hasher_usable_with_std_hashmap() {
        let mut map: std::collections::HashMap<&str, u32, FnvBuildHasher> =
            std::collections::HashMap::default();
        map.insert("alpha", 1);
        map.insert("beta", 2);
        assert_eq!(map.get("alpha"), Some(&1));
        assert_eq!(map.get("beta"), Some(&2));
        assert_eq!(map.get("gamma"), None);
    }

    #[test]
    fn string_hash_is_stable_across_hasher_instances() {
        let build = FnvBuildHasher::default();
        let a = { build.hash_one("reproducible") };
        let b = { build.hash_one("reproducible") };
        assert_eq!(a, b);
    }

    #[test]
    fn different_keys_rarely_collide_in_small_sample() {
        let words = ["term", "extraction", "index", "update", "filename", "generation"];
        let mut hashes: Vec<u64> = words.iter().map(|w| fnv1a_64(w.as_bytes())).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), words.len());
    }

    #[test]
    fn with_state_continues_a_chain() {
        let first = {
            let mut h = FnvHasher::new();
            h.write(b"abc");
            h.finish()
        };
        let mut h = FnvHasher::with_state(first);
        h.write(b"def");
        assert_eq!(h.finish(), fnv1a_64(b"abcdef"));
    }
}
