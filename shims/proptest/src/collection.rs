//! Collection strategies (`vec`, `btree_map`).

use std::collections::BTreeMap;

use crate::strategy::Strategy;
use crate::TestRng;

/// An inclusive size span for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange { min: r.start, max: r.end - 1 }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange { min: *r.start(), max: *r.end() }
    }
}

impl SizeRange {
    fn pick(self, rng: &mut TestRng) -> usize {
        self.min + rng.below(self.max - self.min + 1)
    }
}

/// Strategy producing `Vec`s of values from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// Strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let len = self.size.pick(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// Strategy producing `BTreeMap`s.  The requested size is an upper bound:
/// duplicate generated keys collapse, as in real proptest.
pub fn btree_map<K: Strategy, V: Strategy>(
    key: K,
    value: V,
    size: impl Into<SizeRange>,
) -> BTreeMapStrategy<K, V>
where
    K::Value: Ord,
{
    BTreeMapStrategy { key, value, size: size.into() }
}

/// Strategy returned by [`btree_map`].
#[derive(Debug, Clone)]
pub struct BTreeMapStrategy<K, V> {
    key: K,
    value: V,
    size: SizeRange,
}

impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
where
    K::Value: Ord,
{
    type Value = BTreeMap<K::Value, V::Value>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let len = self.size.pick(rng);
        (0..len).map(|_| (self.key.generate(rng), self.value.generate(rng))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_respects_size_range() {
        let strategy = vec(0u32..100, 2..5);
        let mut rng = TestRng::deterministic("vec");
        for _ in 0..100 {
            let v = strategy.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 100));
        }
    }

    #[test]
    fn btree_map_generates_entries() {
        let strategy = btree_map("[a-c]{1,2}", 0u8..10, 1..6);
        let mut rng = TestRng::deterministic("map");
        let mut max_len = 0;
        for _ in 0..100 {
            let m = strategy.generate(&mut rng);
            assert!(m.len() <= 5);
            max_len = max_len.max(m.len());
        }
        assert!(max_len >= 2, "maps should usually have several entries");
    }
}
