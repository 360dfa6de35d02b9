//! Sharded LRU cache for query results, with optional TinyLFU admission.
//!
//! Keys are `(normalised query, snapshot generation)`, so a snapshot swap
//! naturally invalidates the whole cache without any flush: entries for the
//! old generation stop being requested and age out through normal LRU
//! eviction.  Sharding by key hash keeps lock contention low when many worker
//! threads hit the cache at once.
//!
//! Under [`AdmissionPolicy::TinyLfu`] each shard keeps a 4-bit count-min
//! frequency sketch fed by every lookup.  When the shard is full, a new key
//! is admitted only if its estimated frequency beats the LRU victim's — a
//! burst of one-off queries (a scan) cannot wash a popular working set out
//! of the cache.  Counters are halved once enough lookups accumulate, so the
//! sketch tracks recent popularity, not all-time counts.
//!
//! The cache is generic over its value type: the single-store engine caches
//! `Arc<SearchResults>` (the default), the router caches merged
//! `Arc<Vec<RankedHit>>` responses keyed by its own reload epoch.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use dsearch_obs::Counter;
use dsearch_query::SearchResults;

use crate::stats::{Metric, ServerStats};

/// A cache key: the canonical query text plus the generation it was answered
/// from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// Canonical (parsed-and-rendered) query text.
    pub query: String,
    /// Snapshot generation the cached results came from.
    pub generation: u64,
}

/// A [`CacheKey`] borrowed from the request being answered: what
/// [`QueryCache::get`] probes with, so a lookup copies nothing — a key is
/// owned only by the entry an insert creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKeyRef<'a> {
    /// Canonical (parsed-and-rendered) query text.
    pub query: &'a str,
    /// Snapshot generation the cached results came from.
    pub generation: u64,
}

impl<'a> From<&'a CacheKey> for CacheKeyRef<'a> {
    fn from(key: &'a CacheKey) -> Self {
        CacheKeyRef { query: &key.query, generation: key.generation }
    }
}

/// A key as hashing and comparing see it, owned or borrowed: the entry map
/// holds [`CacheKey`]s and is probed with a `dyn KeyView` of either.
trait KeyView {
    fn view(&self) -> CacheKeyRef<'_>;
}

impl KeyView for CacheKey {
    fn view(&self) -> CacheKeyRef<'_> {
        self.into()
    }
}

impl KeyView for CacheKeyRef<'_> {
    fn view(&self) -> CacheKeyRef<'_> {
        *self
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for CacheKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let key = self.view();
        key.query.hash(state);
        key.generation.hash(state);
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for dyn KeyView + '_ {}

/// Hashes as its view does, which `Borrow` requires.
impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn KeyView).hash(state);
    }
}

/// How the cache decides whether a freshly computed result may displace a
/// cached one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Every insert is admitted; a full shard evicts its LRU entry
    /// unconditionally (the classic LRU cache).
    #[default]
    AdmitAll,
    /// TinyLFU: a new key is admitted to a full shard only when the
    /// frequency sketch estimates it is requested more often than the LRU
    /// victim it would displace.
    TinyLfu,
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionPolicy::AdmitAll => f.write_str("all"),
            AdmissionPolicy::TinyLfu => f.write_str("lfu"),
        }
    }
}

impl std::str::FromStr for AdmissionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "all" => Ok(AdmissionPolicy::AdmitAll),
            "lfu" => Ok(AdmissionPolicy::TinyLfu),
            other => Err(format!("unknown admission policy {other:?} (expected lfu or all)")),
        }
    }
}

/// Counters describing cache behaviour since start-up.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced to make room.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Inserts the TinyLFU admission filter turned away (always zero under
    /// [`AdmissionPolicy::AdmitAll`]).
    pub rejections: u64,
}

impl CacheCounters {
    /// Fraction of lookups served from cache (0.0 when none yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A 4-bit count-min sketch estimating per-key request frequency: four
/// hashed counter rows folded into one nibble array; an estimate is the
/// minimum over a key's four counters, so collisions only ever over-count.
/// Once `sample_size` increments accumulate, every counter is halved — the
/// periodic "reset" that ages out stale popularity.
#[derive(Debug)]
struct FrequencySketch {
    /// Packed counters, 16 four-bit nibbles per word.
    table: Vec<u64>,
    /// Nibble-index mask (`nibble count - 1`, a power of two).
    mask: usize,
    /// Increments since the last halving.
    additions: u64,
    /// Halving threshold: ~16 observations per tracked entry.
    sample_size: u64,
}

impl FrequencySketch {
    /// The most nibbles a sketch holds (64 MiB): what 8 a cached entry come
    /// to at 2^24 entries, the most `dsearch serve --cache` takes.
    const MAX_NIBBLES: usize = 1 << 27;

    fn new(capacity: usize) -> Self {
        // 8 nibbles per cached entry keeps the 4 rows sparse enough that
        // the min-estimate rarely collides into an over-count; a capacity
        // past what the sketch holds counts in the largest one.
        let nibbles = capacity
            .max(1)
            .checked_mul(8)
            .and_then(usize::checked_next_power_of_two)
            .map_or(Self::MAX_NIBBLES, |nibbles| nibbles.min(Self::MAX_NIBBLES))
            .max(64);
        FrequencySketch {
            table: vec![0; nibbles / 16],
            mask: nibbles - 1,
            additions: 0,
            sample_size: (capacity.max(1) as u64).saturating_mul(16),
        }
    }

    /// The four counter positions for one key hash, derived by multiplying
    /// with distinct odd constants and taking the high bits.
    fn indexes(&self, hash: u64) -> [usize; 4] {
        const SEEDS: [u64; 4] = [
            0x9E37_79B9_7F4A_7C15,
            0xC2B2_AE3D_27D4_EB4F,
            0x1656_67B1_9E37_79F9,
            0xFF51_AFD7_ED55_8CCD,
        ];
        SEEDS.map(|seed| (hash.wrapping_mul(seed) >> 32) as usize & self.mask)
    }

    fn nibble(&self, index: usize) -> u64 {
        (self.table[index / 16] >> ((index % 16) * 4)) & 0xF
    }

    /// Records one observation of `hash` (counters saturate at 15).
    fn record(&mut self, hash: u64) {
        let mut added = false;
        for index in self.indexes(hash) {
            if self.nibble(index) < 15 {
                self.table[index / 16] += 1 << ((index % 16) * 4);
                added = true;
            }
        }
        if added {
            self.additions += 1;
            if self.additions >= self.sample_size {
                self.halve();
            }
        }
    }

    /// The estimated observation count for `hash`.
    fn estimate(&self, hash: u64) -> u64 {
        self.indexes(hash).into_iter().map(|i| self.nibble(i)).min().unwrap_or(0)
    }

    /// Halves every counter (clearing the bit that would shift across nibble
    /// boundaries), so old popularity decays instead of pinning forever.
    fn halve(&mut self) {
        for word in &mut self.table {
            *word = (*word >> 1) & 0x7777_7777_7777_7777;
        }
        self.additions /= 2;
    }
}

/// One LRU shard: a key map plus a recency index ordered by a monotonically
/// increasing tick, the most entries it holds, and (under TinyLFU) the
/// shard's frequency sketch.
#[derive(Debug)]
struct Shard<V> {
    entries: HashMap<CacheKey, (V, u64)>,
    recency: BTreeMap<u64, CacheKey>,
    tick: u64,
    capacity: usize,
    sketch: Option<FrequencySketch>,
}

impl<V: Clone> Shard<V> {
    /// The value under `key`, now the most recently used: its recency entry
    /// moves to the new tick, key and all, so a hit copies no key.
    fn touch(&mut self, key: CacheKeyRef<'_>) -> Option<V> {
        let tick = self.tick;
        self.tick += 1;
        let (value, old_tick) = self.entries.get_mut(&key as &dyn KeyView)?;
        let value = value.clone();
        let previous = std::mem::replace(old_tick, tick);
        let owned = self.recency.remove(&previous).expect("recency tracks entries");
        self.recency.insert(tick, owned);
        Some(value)
    }

    fn insert(&mut self, key: CacheKey, value: V) -> u64 {
        let tick = self.tick;
        self.tick += 1;
        if let Some((_, old_tick)) = self.entries.remove(&key) {
            self.recency.remove(&old_tick);
        }
        self.entries.insert(key.clone(), (value, tick));
        self.recency.insert(tick, key);
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            let (_, victim) = self.recency.pop_first().expect("recency tracks entries");
            self.entries.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

/// A sharded LRU query-result cache, generic over the cached value (cheap
/// to clone — in practice an `Arc`).
#[derive(Debug)]
pub struct QueryCache<V = Arc<SearchResults>> {
    shards: Vec<Mutex<Shard<V>>>,
    admission: AdmissionPolicy,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    insertions: Arc<Counter>,
    rejections: Arc<Counter>,
}

/// FNV-1a (the system-wide hash) over the query text, continued over the
/// generation so the same query maps to fresh shards per image.  The same
/// hash indexes the frequency sketch.
fn key_hash(key: CacheKeyRef<'_>) -> u64 {
    let mut hasher = dsearch_text::fnv::FnvHasher::new();
    hasher.write(key.query.as_bytes());
    hasher.write(&key.generation.to_le_bytes());
    hasher.finish()
}

impl<V: Clone> QueryCache<V> {
    /// Creates a cache of at most `capacity` entries spread over `shards`
    /// locks, admitting every insert.  A cache never has more shards than
    /// entries (and has one, holding nothing, at capacity 0).
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        QueryCache::with_admission(capacity, shards, AdmissionPolicy::AdmitAll)
    }

    /// Creates a cache with an explicit [`AdmissionPolicy`]; under
    /// [`TinyLfu`](AdmissionPolicy::TinyLfu) each shard carries a frequency
    /// sketch sized to its share of the capacity.
    #[must_use]
    pub fn with_admission(capacity: usize, shards: usize, admission: AdmissionPolicy) -> Self {
        let shards = shards.min(capacity).max(1);
        QueryCache {
            // The first `capacity % shards` shards hold one entry more, so the
            // shards add up to `capacity` exactly.
            shards: (0..shards)
                .map(|i| {
                    let capacity = capacity / shards + usize::from(i < capacity % shards);
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        recency: BTreeMap::new(),
                        tick: 0,
                        capacity,
                        sketch: (admission == AdmissionPolicy::TinyLfu)
                            .then(|| FrequencySketch::new(capacity)),
                    })
                })
                .collect(),
            admission,
            hits: Arc::default(),
            misses: Arc::default(),
            evictions: Arc::default(),
            insertions: Arc::default(),
            rejections: Arc::default(),
        }
    }

    /// Counts this cache's events straight into `stats`' five cache series
    /// from here on (called once, before the cache is shared): each event is
    /// counted once, by one relaxed `fetch_add` on the registered handle.
    #[must_use]
    pub fn counting_into(mut self, stats: &ServerStats) -> Self {
        self.hits = Arc::clone(stats.counter(Metric::CacheHits));
        self.misses = Arc::clone(stats.counter(Metric::CacheMisses));
        self.evictions = Arc::clone(stats.counter(Metric::CacheEvictions));
        self.insertions = Arc::clone(stats.counter(Metric::CacheInsertions));
        self.rejections = Arc::clone(stats.counter(Metric::CacheRejected));
        self
    }

    /// The admission policy this cache inserts under.
    #[must_use]
    pub fn admission(&self) -> AdmissionPolicy {
        self.admission
    }

    fn shard_for(&self, hash: u64) -> &Mutex<Shard<V>> {
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Looks up a cached result, refreshing its recency on hit.  Every
    /// lookup — hit or miss — feeds the frequency sketch, so the admission
    /// filter sees how often a key is *requested*, not how often it is
    /// cached.  The key may be borrowed ([`CacheKeyRef`]) or a `&`[`CacheKey`].
    #[must_use]
    pub fn get<'k>(&self, key: impl Into<CacheKeyRef<'k>>) -> Option<V> {
        let key = key.into();
        let hash = key_hash(key);
        let mut shard = self.shard_for(hash).lock();
        if let Some(sketch) = &mut shard.sketch {
            sketch.record(hash);
        }
        let result = shard.touch(key);
        drop(shard);
        match &result {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        result
    }

    /// Inserts a result, evicting least-recently-used entries past capacity
    /// (a cache of capacity 0 stores nothing).  Under TinyLFU a new key offered to a full shard must out-score the
    /// LRU victim in the frequency sketch or the insert is rejected (the
    /// victim stays).
    pub fn insert(&self, key: CacheKey, value: V) {
        let hash = key_hash((&key).into());
        let mut shard = self.shard_for(hash).lock();
        if shard.capacity == 0 {
            return;
        }
        if let Some(sketch) = &shard.sketch {
            let challenging =
                shard.entries.len() >= shard.capacity && !shard.entries.contains_key(&key);
            if challenging {
                if let Some((_, victim)) = shard.recency.first_key_value() {
                    if sketch.estimate(hash) <= sketch.estimate(key_hash(victim.into())) {
                        drop(shard);
                        self.rejections.inc();
                        return;
                    }
                }
            }
        }
        let evicted = shard.insert(key, value);
        drop(shard);
        self.insertions.inc();
        self.evictions.add(evicted);
    }

    /// Number of live entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// Heap bytes the live entries hold: each key's text (kept once in the
    /// entry map and once in the recency index) plus whatever `value_bytes`
    /// reports for its value.
    #[must_use]
    pub fn resident_bytes(&self, value_bytes: impl Fn(&V) -> usize) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let shard = shard.lock();
                shard
                    .entries
                    .iter()
                    .map(|(key, (value, _))| 2 * key.query.len() + value_bytes(value))
                    .sum::<usize>()
            })
            .sum()
    }

    /// Returns `true` when no entries are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards the cache is split into.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Snapshot of the hit/miss/eviction counters.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.value(),
            misses: self.misses.value(),
            evictions: self.evictions.value(),
            insertions: self.insertions.value(),
            rejections: self.rejections.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_index::FileId;
    use dsearch_query::Hit;

    fn results(n: usize) -> Arc<SearchResults> {
        Arc::new(SearchResults::new(
            (0..n)
                .map(|i| Hit {
                    file_id: FileId(i as u32),
                    path: format!("f{i}.txt").into(),
                    matched_terms: 1,
                    score: 0.0,
                })
                .collect(),
        ))
    }

    fn key(q: &str, generation: u64) -> CacheKey {
        CacheKey { query: q.to_string(), generation }
    }

    #[test]
    fn hit_miss_and_counter_accounting() {
        let cache = QueryCache::new(8, 2);
        assert!(cache.get(&key("rust", 1)).is_none());
        cache.insert(key("rust", 1), results(3));
        let got = cache.get(&key("rust", 1)).expect("cached");
        assert_eq!(got.len(), 3);
        let counters = cache.counters();
        assert_eq!(counters.hits, 1);
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.insertions, 1);
        assert!((counters.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(cache.shard_count(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn resident_bytes_follow_the_live_entries() {
        let cache = QueryCache::new(2, 1);
        let hits = |value: &Arc<SearchResults>| value.heap_bytes();
        assert_eq!(cache.resident_bytes(hits), 0);
        cache.insert(key("rust", 1), results(3));
        cache.insert(key("search", 1), results(5));
        let hit = std::mem::size_of::<Hit>();
        // Each key's text twice (entry map and recency index), each value once.
        assert_eq!(cache.resident_bytes(hits), 2 * (4 + 6) + 8 * hit);
        // An eviction takes the evicted entry's bytes with it.
        cache.insert(key("go", 1), results(1));
        assert_eq!(cache.resident_bytes(hits), 2 * (6 + 2) + 6 * hit);
    }

    #[test]
    fn capacity_is_exact_whatever_the_shard_count() {
        for capacity in [0, 1, 7, 4096] {
            for admission in [AdmissionPolicy::AdmitAll, AdmissionPolicy::TinyLfu] {
                let cache = QueryCache::with_admission(capacity, 8, admission);
                assert_eq!(cache.shard_count(), capacity.clamp(1, 8), "{capacity}");
                for i in 0..4 * capacity + 64 {
                    cache.insert(key(&format!("q{i}"), 1), results(1));
                    assert!(cache.len() <= capacity, "{capacity}: {} entries", cache.len());
                }
                if admission == AdmissionPolicy::AdmitAll {
                    // Every shard saw more keys than it holds: all are full.
                    assert_eq!(cache.len(), capacity, "{capacity}");
                }
            }
        }
        let off = QueryCache::new(0, 8);
        off.insert(key("rust", 1), results(1));
        assert!(off.get(&key("rust", 1)).is_none());
        assert_eq!(off.counters().insertions, 0);
    }

    #[test]
    fn generation_is_part_of_the_key() {
        let cache = QueryCache::new(8, 4);
        cache.insert(key("rust", 1), results(3));
        assert!(cache.get(&key("rust", 2)).is_none(), "new generation must miss");
        assert!(cache.get(&key("rust", 1)).is_some());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // Single shard so the LRU order is fully observable.
        let cache = QueryCache::new(2, 1);
        cache.insert(key("a", 1), results(1));
        cache.insert(key("b", 1), results(1));
        // Touch "a" so "b" is now the coldest.
        assert!(cache.get(&key("a", 1)).is_some());
        cache.insert(key("c", 1), results(1));
        assert_eq!(cache.counters().evictions, 1);
        assert!(cache.get(&key("b", 1)).is_none(), "cold entry evicted");
        assert!(cache.get(&key("a", 1)).is_some());
        assert!(cache.get(&key("c", 1)).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_a_key_updates_in_place() {
        let cache = QueryCache::new(4, 1);
        cache.insert(key("q", 1), results(1));
        cache.insert(key("q", 1), results(5));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key("q", 1)).unwrap().len(), 5);
        assert_eq!(cache.counters().evictions, 0);
    }

    #[test]
    fn admission_policy_round_trips_through_strings() {
        assert_eq!("lfu".parse::<AdmissionPolicy>().unwrap(), AdmissionPolicy::TinyLfu);
        assert_eq!("all".parse::<AdmissionPolicy>().unwrap(), AdmissionPolicy::AdmitAll);
        assert!("sometimes".parse::<AdmissionPolicy>().is_err());
        assert_eq!(AdmissionPolicy::TinyLfu.to_string(), "lfu");
        assert_eq!(AdmissionPolicy::AdmitAll.to_string(), "all");
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::AdmitAll);
    }

    #[test]
    fn tinylfu_rejects_one_hit_wonders_when_full() {
        // Single shard, capacity 2.  Warm two keys and make them popular.
        let cache = QueryCache::with_admission(2, 1, AdmissionPolicy::TinyLfu);
        assert_eq!(cache.admission(), AdmissionPolicy::TinyLfu);
        for hot in ["hot-a", "hot-b"] {
            assert!(cache.get(&key(hot, 1)).is_none());
            cache.insert(key(hot, 1), results(1));
            for _ in 0..5 {
                assert!(cache.get(&key(hot, 1)).is_some(), "{hot}");
            }
        }
        // A scan of distinct once-seen queries: each is looked up once
        // (frequency estimate 1) and must lose to the popular victims.
        for i in 0..50 {
            let k = key(&format!("scan-{i}"), 1);
            assert!(cache.get(&k).is_none());
            cache.insert(k, results(1));
        }
        let counters = cache.counters();
        assert_eq!(counters.rejections, 50, "{counters:?}");
        assert_eq!(counters.evictions, 0, "victims must survive the scan");
        assert!(cache.get(&key("hot-a", 1)).is_some());
        assert!(cache.get(&key("hot-b", 1)).is_some());
    }

    #[test]
    fn tinylfu_admits_keys_that_outscore_the_victim() {
        let cache = QueryCache::with_admission(2, 1, AdmissionPolicy::TinyLfu);
        // Two cold residents (one lookup each), then a genuinely popular
        // newcomer that has been requested more often than either.
        for cold in ["cold-a", "cold-b"] {
            assert!(cache.get(&key(cold, 1)).is_none());
            cache.insert(key(cold, 1), results(1));
        }
        for _ in 0..4 {
            assert!(cache.get(&key("popular", 1)).is_none());
        }
        cache.insert(key("popular", 1), results(1));
        let counters = cache.counters();
        assert_eq!(counters.rejections, 0, "{counters:?}");
        assert_eq!(counters.evictions, 1, "the LRU cold entry is displaced");
        assert!(cache.get(&key("popular", 1)).is_some());
    }

    #[test]
    fn admit_all_caches_never_reject() {
        let cache = QueryCache::new(2, 1);
        assert_eq!(cache.admission(), AdmissionPolicy::AdmitAll);
        for i in 0..20 {
            cache.insert(key(&format!("q{i}"), 1), results(1));
        }
        let counters = cache.counters();
        assert_eq!(counters.rejections, 0);
        assert_eq!(counters.insertions, 20);
        assert_eq!(counters.evictions, 18);
    }

    #[test]
    fn frequency_sketch_counts_saturate_and_halve() {
        let mut sketch = FrequencySketch::new(4);
        assert_eq!(sketch.estimate(42), 0);
        for _ in 0..200 {
            sketch.record(42);
        }
        // 4-bit counters cap at 15 no matter how hot the key runs.
        assert!(sketch.estimate(42) <= 15);
        assert!(sketch.estimate(42) > 0);
        let before = sketch.estimate(42);
        sketch.halve();
        assert_eq!(sketch.estimate(42), before / 2);
        // Unrelated keys stay (near) zero: the min-of-rows estimate only
        // over-counts when all four rows collide.
        assert!(sketch.estimate(7) <= before);
    }

    #[test]
    fn a_sketch_past_the_largest_capacity_stays_the_largest() {
        let largest = FrequencySketch::new(1 << 24);
        assert_eq!(largest.table.len(), FrequencySketch::MAX_NIBBLES / 16);
        // `capacity × 8` overflows here, and takes a power of two past the
        // largest there: neither wraps, panics nor grows the table.
        for capacity in [(1 << 24) + 1, usize::MAX / 8 + 1, usize::MAX] {
            let sketch = FrequencySketch::new(capacity);
            assert_eq!(sketch.table.len(), largest.table.len(), "{capacity}");
        }
    }

    #[test]
    fn concurrent_access_is_safe_and_lossless() {
        let cache = Arc::new(QueryCache::new(256, 8));
        let mut handles = Vec::new();
        for t in 0..8 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let k = key(&format!("q{t}-{i}"), 1);
                    cache.insert(k.clone(), results(1));
                    assert!(cache.get(&k).is_some() || cache.counters().evictions > 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let counters = cache.counters();
        assert_eq!(counters.insertions, 1600);
        assert!(cache.len() <= 256 + 8);
    }
}
