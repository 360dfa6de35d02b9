//! Open-addressing hash containers keyed by FNV.
//!
//! The original C++ implementation used Boost's `unordered_map` for the index
//! and `unordered_set` for per-file duplicate elimination, both configured
//! with the FNV1 hash function.  This module provides the map, [`FnvHashMap`]
//! (the index's term table and the per-file word list's seen set), implemented
//! from scratch with open addressing (linear probing) and tombstone deletion so that the
//! cost profile — one hash, a short probe sequence, no per-node allocation —
//! mirrors the paper's containers.
//!
//! # Example
//!
//! ```
//! use dsearch_text::hashtable::FnvHashMap;
//!
//! let mut postings: FnvHashMap<String, Vec<u32>> = FnvHashMap::new();
//! postings.entry_or_default("rust".to_owned()).push(7);
//! postings.entry_or_default("rust".to_owned()).push(9);
//! assert_eq!(postings.get("rust"), Some(&vec![7, 9]));
//! ```

use std::borrow::Borrow;
use std::fmt;
use std::hash::{BuildHasher, Hash};

use crate::fnv::FnvBuildHasher;

const INITIAL_CAPACITY: usize = 16;
/// Resize when the table is more than ~87 % full (live + tombstones).
const MAX_LOAD_NUM: usize = 7;
const MAX_LOAD_DEN: usize = 8;

#[derive(Clone, Debug)]
enum Slot<K, V> {
    Empty,
    Tombstone,
    Occupied { key: K, value: V },
}

/// An open-addressing hash map using 64-bit FNV-1a, linear probing and
/// tombstone deletion.
///
/// This is the Rust equivalent of the Boost `unordered_map<Key, Value,
/// fnv_hash>` the paper's shared index was built on.  It is not a drop-in
/// `std::collections::HashMap` replacement, but it offers the subset of the
/// API the index generator needs plus iteration and draining for the index
/// join ("Join Forces") step.
#[derive(Clone)]
pub struct FnvHashMap<K, V, S = FnvBuildHasher> {
    slots: Vec<Slot<K, V>>,
    len: usize,
    tombstones: usize,
    hasher: S,
}

impl<K: fmt::Debug, V: fmt::Debug, S> fmt::Debug for FnvHashMap<K, V, S>
where
    K: Hash + Eq,
    S: BuildHasher,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Hash + Eq, V> Default for FnvHashMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V> FnvHashMap<K, V> {
    /// Creates an empty map with a small default capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty map that can hold at least `capacity` entries without
    /// resizing.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_hasher(capacity, FnvBuildHasher::default())
    }
}

impl<K: Hash + Eq, V, S: BuildHasher> FnvHashMap<K, V, S> {
    /// Creates an empty map with the given capacity and hash builder.
    pub fn with_capacity_and_hasher(capacity: usize, hasher: S) -> Self {
        let cap = capacity
            .checked_mul(MAX_LOAD_DEN)
            .map(|c| (c / MAX_LOAD_NUM).max(INITIAL_CAPACITY))
            .unwrap_or(INITIAL_CAPACITY)
            .next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, || Slot::Empty);
        FnvHashMap { slots, len: 0, tombstones: 0, hasher }
    }

    /// Number of live entries in the map.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the map contains no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current number of slots (for load-factor diagnostics and tests).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Bytes of heap the slot array holds (not what keys and values own
    /// beyond their inline size).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<K, V>>()
    }

    fn hash_of<Q: Hash + ?Sized>(&self, key: &Q) -> u64 {
        self.hasher.hash_one(key)
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Index of the slot holding `key`, if present.
    fn find_slot<Q>(&self, key: &Q) -> Option<usize>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mask = self.mask();
        let mut idx = (self.hash_of(key) as usize) & mask;
        for _ in 0..=mask {
            match &self.slots[idx] {
                Slot::Empty => return None,
                Slot::Tombstone => {}
                Slot::Occupied { key: k, .. } => {
                    if k.borrow() == key {
                        return Some(idx);
                    }
                }
            }
            idx = (idx + 1) & mask;
        }
        None
    }

    /// Slot where `key` should be inserted (first tombstone on the probe path
    /// or the first empty slot), or the slot that already holds it.
    fn find_insert_slot(&self, key: &K) -> (usize, bool) {
        let mask = self.mask();
        let mut idx = (self.hash_of(key) as usize) & mask;
        let mut first_tombstone: Option<usize> = None;
        loop {
            match &self.slots[idx] {
                Slot::Empty => return (first_tombstone.unwrap_or(idx), false),
                Slot::Tombstone => {
                    if first_tombstone.is_none() {
                        first_tombstone = Some(idx);
                    }
                }
                Slot::Occupied { key: k, .. } => {
                    if k == key {
                        return (idx, true);
                    }
                }
            }
            idx = (idx + 1) & mask;
        }
    }

    fn maybe_grow(&mut self) {
        if (self.len + self.tombstones + 1) * MAX_LOAD_DEN > self.slots.len() * MAX_LOAD_NUM {
            self.resize(self.slots.len() * 2);
        }
    }

    fn resize(&mut self, new_cap: usize) {
        let new_cap = new_cap.max(INITIAL_CAPACITY).next_power_of_two();
        let mut old = Vec::with_capacity(new_cap);
        old.resize_with(new_cap, || Slot::Empty);
        std::mem::swap(&mut old, &mut self.slots);
        self.len = 0;
        self.tombstones = 0;
        for slot in old {
            if let Slot::Occupied { key, value } = slot {
                self.insert(key, value);
            }
        }
    }

    /// Inserts `value` under `key`, returning the previous value if the key
    /// was already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.maybe_grow();
        let (idx, existed) = self.find_insert_slot(&key);
        if existed {
            if let Slot::Occupied { value: v, .. } = &mut self.slots[idx] {
                return Some(std::mem::replace(v, value));
            }
            unreachable!("find_insert_slot reported an occupied slot");
        }
        if matches!(self.slots[idx], Slot::Tombstone) {
            self.tombstones -= 1;
        }
        self.slots[idx] = Slot::Occupied { key, value };
        self.len += 1;
        None
    }

    /// Returns a reference to the value stored under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.find_slot(key).map(|idx| match &self.slots[idx] {
            Slot::Occupied { value, .. } => value,
            _ => unreachable!(),
        })
    }

    /// Returns a mutable reference to the value stored under `key`.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = self.find_slot(key)?;
        match &mut self.slots[idx] {
            Slot::Occupied { value, .. } => Some(value),
            _ => unreachable!(),
        }
    }

    /// Returns the stored key together with a mutable reference to its
    /// value — for callers that look up by a borrowed form and need the owned
    /// key back (e.g. to clone an interned string).
    pub fn get_key_value_mut<Q>(&mut self, key: &Q) -> Option<(&K, &mut V)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = self.find_slot(key)?;
        match &mut self.slots[idx] {
            Slot::Occupied { key, value } => Some((&*key, value)),
            _ => unreachable!(),
        }
    }

    /// Returns `true` when `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.find_slot(key).is_some()
    }

    /// Removes `key` from the map, returning its value if it was present.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = self.find_slot(key)?;
        let slot = std::mem::replace(&mut self.slots[idx], Slot::Tombstone);
        self.tombstones += 1;
        self.len -= 1;
        match slot {
            Slot::Occupied { value, .. } => Some(value),
            _ => unreachable!(),
        }
    }

    /// Returns a mutable reference to the value under `key`, inserting
    /// `V::default()` first when the key is absent.
    ///
    /// This is the access pattern the index uses for posting lists: look the
    /// term up once and append to whatever list is there.
    pub fn entry_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        self.maybe_grow();
        let (idx, existed) = self.find_insert_slot(&key);
        if !existed {
            if matches!(self.slots[idx], Slot::Tombstone) {
                self.tombstones -= 1;
            }
            self.slots[idx] = Slot::Occupied { key, value: V::default() };
            self.len += 1;
        }
        match &mut self.slots[idx] {
            Slot::Occupied { value, .. } => value,
            _ => unreachable!(),
        }
    }

    /// Iterates over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().filter_map(|s| match s {
            Slot::Occupied { key, value } => Some((key, value)),
            _ => None,
        })
    }

    /// Iterates over `(key, &mut value)` pairs in unspecified order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.slots.iter_mut().filter_map(|s| match s {
            Slot::Occupied { key, value } => Some((&*key, value)),
            _ => None,
        })
    }

    /// Iterates over keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates over values in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Consumes the map and yields owned `(key, value)` pairs.
    pub fn into_iter_pairs(self) -> impl Iterator<Item = (K, V)> {
        self.slots.into_iter().filter_map(|s| match s {
            Slot::Occupied { key, value } => Some((key, value)),
            _ => None,
        })
    }

    /// Removes every entry, keeping the allocated table.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = Slot::Empty;
        }
        self.len = 0;
        self.tombstones = 0;
    }

    /// Fraction of live slots, for diagnostics.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.slots.len() as f64
    }
}

impl<K: Hash + Eq, V> FromIterator<(K, V)> for FnvHashMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut map = FnvHashMap::with_capacity(iter.size_hint().0);
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: Hash + Eq, V> Extend<(K, V)> for FnvHashMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_roundtrip() {
        let mut map = FnvHashMap::new();
        assert_eq!(map.insert("alpha", 1), None);
        assert_eq!(map.insert("beta", 2), None);
        assert_eq!(map.get("alpha"), Some(&1));
        assert_eq!(map.get("beta"), Some(&2));
        assert_eq!(map.get("gamma"), None);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn insert_replaces_and_returns_old_value() {
        let mut map = FnvHashMap::new();
        assert_eq!(map.insert("k", 1), None);
        assert_eq!(map.insert("k", 2), Some(1));
        assert_eq!(map.get("k"), Some(&2));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn remove_leaves_probe_chain_intact() {
        // Force collisions with a tiny table by inserting many keys.
        let mut map = FnvHashMap::new();
        for i in 0..100u32 {
            map.insert(i, i * 10);
        }
        for i in (0..100u32).step_by(2) {
            assert_eq!(map.remove(&i), Some(i * 10));
        }
        for i in 0..100u32 {
            if i % 2 == 0 {
                assert_eq!(map.get(&i), None);
            } else {
                assert_eq!(map.get(&i), Some(&(i * 10)), "key {i} lost after removals");
            }
        }
        assert_eq!(map.len(), 50);
    }

    #[test]
    fn tombstones_are_reused_on_insert() {
        let mut map = FnvHashMap::new();
        for i in 0..32u32 {
            map.insert(i, i);
        }
        let cap_before = map.capacity();
        for i in 0..32u32 {
            map.remove(&i);
        }
        for i in 0..32u32 {
            map.insert(i, i + 1);
        }
        assert_eq!(map.len(), 32);
        for i in 0..32u32 {
            assert_eq!(map.get(&i), Some(&(i + 1)));
        }
        // Reinserting into tombstoned slots should not have forced unbounded growth.
        assert!(map.capacity() <= cap_before * 2);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut map = FnvHashMap::with_capacity(4);
        for i in 0..10_000u64 {
            map.insert(i, i * 3);
        }
        assert_eq!(map.len(), 10_000);
        for i in (0..10_000u64).step_by(997) {
            assert_eq!(map.get(&i), Some(&(i * 3)));
        }
        assert!(map.load_factor() <= 0.9);
    }

    #[test]
    fn entry_or_default_appends_to_posting_lists() {
        let mut map: FnvHashMap<String, Vec<u32>> = FnvHashMap::new();
        map.entry_or_default("term".to_owned()).push(1);
        map.entry_or_default("term".to_owned()).push(2);
        map.entry_or_default("other".to_owned()).push(3);
        assert_eq!(map.get("term"), Some(&vec![1, 2]));
        assert_eq!(map.get("other"), Some(&vec![3]));
    }

    #[test]
    fn iter_visits_every_live_entry_once() {
        let mut map = FnvHashMap::new();
        for i in 0..500u32 {
            map.insert(i, ());
        }
        for i in 0..250u32 {
            map.remove(&i);
        }
        let mut seen: Vec<u32> = map.iter().map(|(k, _)| *k).collect();
        seen.sort_unstable();
        assert_eq!(seen, (250..500).collect::<Vec<_>>());
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut map = FnvHashMap::new();
        for i in 0..100u32 {
            map.insert(i, i);
        }
        let cap = map.capacity();
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.capacity(), cap);
        map.insert(7, 7);
        assert_eq!(map.get(&7), Some(&7));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut map: FnvHashMap<u32, u32> = (0..10).map(|i| (i, i * i)).collect();
        map.extend((10..20).map(|i| (i, i * i)));
        assert_eq!(map.len(), 20);
        assert_eq!(map.get(&15), Some(&225));
    }

    #[test]
    fn debug_output_is_nonempty() {
        let mut map = FnvHashMap::new();
        map.insert("k", 1);
        let s = format!("{map:?}");
        assert!(s.contains('k'));
    }

    proptest! {
        /// The map behaves exactly like std::collections::HashMap under a
        /// random sequence of inserts and removes.
        #[test]
        fn behaves_like_std_hashmap(ops in proptest::collection::vec((0u16..512, any::<bool>(), any::<u32>()), 0..600)) {
            let mut ours: FnvHashMap<u16, u32> = FnvHashMap::new();
            let mut reference: HashMap<u16, u32> = HashMap::new();
            for (key, is_insert, value) in ops {
                if is_insert {
                    prop_assert_eq!(ours.insert(key, value), reference.insert(key, value));
                } else {
                    prop_assert_eq!(ours.remove(&key), reference.remove(&key));
                }
                prop_assert_eq!(ours.len(), reference.len());
            }
            for (k, v) in &reference {
                prop_assert_eq!(ours.get(k), Some(v));
            }
            let mut ours_pairs: Vec<(u16, u32)> = ours.iter().map(|(k, v)| (*k, *v)).collect();
            let mut ref_pairs: Vec<(u16, u32)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
            ours_pairs.sort_unstable();
            ref_pairs.sort_unstable();
            prop_assert_eq!(ours_pairs, ref_pairs);
        }
    }
}
