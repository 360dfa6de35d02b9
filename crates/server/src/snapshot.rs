//! Immutable, atomically swappable index snapshots.
//!
//! A [`IndexSnapshot`] is the serving-side image of an on-disk
//! [`IndexStore`]: every segment is loaded into memory as one shard and the
//! whole image is shared behind an `Arc`.  Queries hold the `Arc` for their
//! entire evaluation, so a concurrent re-index can publish a new generation
//! through [`SnapshotCell::publish`] without invalidating anything in
//! flight — readers on the old generation finish on the old image, new
//! queries pick up the new one.
//!
//! A store of several segments — a resumable build seals one per checkpoint —
//! is served segment-per-shard, the "search can work with multiple indices
//! in parallel" future work the paper sketches.  `dsearch index` stores a run
//! as one segment however many replicas built it, which loads as one shard.
//!
//! Shards are **sealed** ([`SealedShard`]): each is the bytes of its segment
//! file — postings in fixed-size delta blocks, term by sorted term — plus
//! flat tables locating every term in them.  Loading is decode-free and
//! copies nothing out of the file but the doc table, and queries evaluate
//! through skip-aware cursors over the same bytes, so a reload costs I/O
//! plus one validating pass, not a posting-by-posting rebuild — and the
//! segments are independent, so a store's segments load concurrently, each
//! on the cores the others leave idle.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use dsearch_index::{DocTable, InMemoryIndex, SealedShard};
use dsearch_persist::{IndexStore, PersistError};
use dsearch_query::{evaluate, scorable, PruneStats, Query, Scorer, SearchResults};

/// One immutable in-memory image of an index store.
#[derive(Debug)]
pub struct IndexSnapshot {
    generation: u64,
    shards: Vec<SealedShard>,
    docs: DocTable,
    /// What [`load`](IndexSnapshot::load) took; zero for an image that was
    /// never on disk.
    load_time: Duration,
}

impl IndexSnapshot {
    /// Loads every live segment of `store` as one sealed shard each — the
    /// segments concurrently, the shards in manifest order — tagging the
    /// image with `generation`.
    ///
    /// # Errors
    ///
    /// Fails when a segment is missing or corrupt, naming its file; there is
    /// no image then, not one of the segments that did load.
    pub fn load(store: &IndexStore, generation: u64) -> Result<Self, PersistError> {
        let started = Instant::now();
        let mut docs = DocTable::new();
        let mut shards = Vec::with_capacity(store.segment_count());
        for (shard, segment_docs) in store.load_all_sealed()? {
            // Segments written from one run share a doc table; keep the most
            // complete copy (mirrors the CLI's multi-segment search).
            if segment_docs.len() > docs.len() {
                docs = segment_docs;
            }
            shards.push(shard);
        }
        let mut snapshot = IndexSnapshot::from_sealed(shards, docs, generation);
        snapshot.load_time = started.elapsed();
        Ok(snapshot)
    }

    /// Builds a snapshot directly from an in-memory index (tests, benches and
    /// the re-index path before segments hit disk).
    #[must_use]
    pub fn from_index(index: InMemoryIndex, docs: DocTable, generation: u64) -> Self {
        IndexSnapshot::from_shards(vec![index], docs, generation)
    }

    /// Builds a snapshot from explicit in-memory shards, **sealing** each
    /// one: the vocabulary becomes a sorted interned dictionary and every
    /// posting list is block-compressed with skip metadata.
    #[must_use]
    pub fn from_shards(shards: Vec<InMemoryIndex>, docs: DocTable, generation: u64) -> Self {
        let sealed = shards.iter().map(SealedShard::from_index).collect();
        IndexSnapshot::from_sealed(sealed, docs, generation)
    }

    /// Builds a snapshot from already-sealed shards.  The doc table's path
    /// ranks, which every evaluation's result heap orders ties by, are
    /// computed here rather than by the first query, so the image's
    /// footprint is what it is before it serves.
    #[must_use]
    pub fn from_sealed(shards: Vec<SealedShard>, docs: DocTable, generation: u64) -> Self {
        let _ = docs.path_ranks();
        IndexSnapshot { generation, shards, docs, load_time: Duration::ZERO }
    }

    /// How long loading this image from its store took (open, read, verify
    /// and lay out every segment); zero for an image built in memory.
    #[must_use]
    pub fn load_time(&self) -> Duration {
        self.load_time
    }

    /// The generation number this image was published under.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of shards (loaded segments).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total documents in the snapshot's doc table.
    #[must_use]
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// Total files indexed across shards.
    #[must_use]
    pub fn file_count(&self) -> u64 {
        self.shards.iter().map(SealedShard::file_count).sum()
    }

    /// Total `(term, file)` postings across shards.
    #[must_use]
    pub fn posting_count(&self) -> u64 {
        self.shards.iter().map(SealedShard::posting_count).sum()
    }

    /// Bytes the block-compressed postings occupy across shards.
    #[must_use]
    pub fn posting_bytes(&self) -> usize {
        self.shards.iter().map(SealedShard::posting_bytes).sum()
    }

    /// Bytes the same postings would occupy as raw `Vec<FileId>` storage.
    #[must_use]
    pub fn uncompressed_posting_bytes(&self) -> usize {
        self.shards.iter().map(SealedShard::uncompressed_posting_bytes).sum()
    }

    /// Heap bytes the image holds: every shard's buffer and tables plus the
    /// doc table, from their capacities (no allocator hooks).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(SealedShard::resident_bytes).sum::<usize>() + self.docs.heap_bytes()
    }

    /// The document table backing this snapshot.
    #[must_use]
    pub fn docs(&self) -> &DocTable {
        &self.docs
    }

    /// Iterates `(term text, document frequency)` pairs across every shard.
    /// A term living in several shards appears once per shard; callers merge.
    pub fn terms(&self) -> impl Iterator<Item = (String, usize)> + '_ {
        self.shards.iter().flat_map(|shard| {
            shard.iter().map(|(term, postings)| (term.to_owned(), postings.len()))
        })
    }

    /// The sealed shards, in manifest order: with [`docs`](Self::docs), what
    /// `dsearch_query::evaluate` takes.
    #[must_use]
    pub fn shards(&self) -> &[SealedShard] {
        &self.shards
    }

    /// Every match of `query` as a boolean query (the constant scorer), in
    /// rank order.
    #[must_use]
    pub fn search(&self, query: &Query) -> SearchResults {
        evaluate(&self.shards, &self.docs, query, Scorer::Constant, usize::MAX, &|| false).0
    }

    /// Evaluates `query` as ranked retrieval: BM25-scored top-`k` with
    /// MaxScore pruning, one result heap across every sealed shard.
    /// Returns `None` when the query shape is not scorable (prefix terms,
    /// exclusions) — [`search`](Self::search) answers those.
    /// `should_cancel` is polled as the evaluation goes; a cancelled call
    /// says so in [`PruneStats::cancelled`].
    #[must_use]
    pub fn search_topk(
        &self,
        query: &Query,
        k: usize,
        should_cancel: &dyn Fn() -> bool,
    ) -> Option<(SearchResults, PruneStats)> {
        scorable(query)
            .then(|| evaluate(&self.shards, &self.docs, query, Scorer::Bm25, k, should_cancel))
    }
}

/// The atomically swappable slot the engine serves from.
///
/// Readers pay one `RwLock` read acquisition to clone the `Arc`; publishers
/// swap the `Arc` under the write lock.  In-flight queries keep the old image
/// alive through their own `Arc` until they finish.
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<Arc<IndexSnapshot>>,
    /// Highest generation number ever handed out or published.  Reloads
    /// reserve their number here *before* loading, so two concurrent reloads
    /// can never tag different images with the same generation (which would
    /// poison the generation-keyed query cache).
    issued: std::sync::atomic::AtomicU64,
}

impl SnapshotCell {
    /// Creates the cell with its first snapshot.
    #[must_use]
    pub fn new(snapshot: IndexSnapshot) -> Self {
        let issued = std::sync::atomic::AtomicU64::new(snapshot.generation());
        SnapshotCell { current: RwLock::new(Arc::new(snapshot)), issued }
    }

    /// The current snapshot (cheap: one atomic ref-count bump).
    #[must_use]
    pub fn load(&self) -> Arc<IndexSnapshot> {
        Arc::clone(&self.current.read())
    }

    /// The currently served generation number.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.current.read().generation()
    }

    /// Atomically replaces the served snapshot, returning the generation that
    /// was displaced.
    pub fn publish(&self, snapshot: IndexSnapshot) -> u64 {
        use std::sync::atomic::Ordering;
        self.issued.fetch_max(snapshot.generation(), Ordering::SeqCst);
        let mut slot = self.current.write();
        let old = slot.generation();
        *slot = Arc::new(snapshot);
        old
    }

    /// Reloads from `store`, publishing the image as the next generation.
    ///
    /// Safe under concurrency: each reload reserves a distinct generation up
    /// front, and an image never displaces a newer one (two racing reloads
    /// leave the later generation serving, whatever order they finish in).
    ///
    /// # Errors
    ///
    /// Fails when the store cannot be read; the current snapshot stays
    /// published in that case.
    pub fn reload(&self, store: &IndexStore) -> Result<u64, PersistError> {
        use std::sync::atomic::Ordering;
        let next_generation = self.issued.fetch_add(1, Ordering::SeqCst) + 1;
        let snapshot = IndexSnapshot::load(store, next_generation)?;
        let mut slot = self.current.write();
        if snapshot.generation() > slot.generation() {
            *slot = Arc::new(snapshot);
        }
        Ok(next_generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_text::Term;

    fn snapshot_with(words: &[(&str, &[&str])], generation: u64) -> IndexSnapshot {
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for (path, terms) in words {
            let id = docs.insert(*path);
            index.insert_file(id, terms.iter().map(|w| Term::from(*w)));
        }
        IndexSnapshot::from_index(index, docs, generation)
    }

    #[test]
    fn single_shard_snapshot_searches_like_a_searcher() {
        let snapshot = snapshot_with(
            &[("a.txt", &["rust", "index"]), ("b.txt", &["rust"]), ("c.txt", &["java"])],
            1,
        );
        assert_eq!(snapshot.generation(), 1);
        assert_eq!(snapshot.shard_count(), 1);
        assert_eq!(snapshot.doc_count(), 3);
        assert_eq!(snapshot.file_count(), 3);
        let results = snapshot.search(&Query::parse("rust").unwrap());
        assert_eq!(results.paths(), vec!["a.txt", "b.txt"]);
        assert_eq!(snapshot.docs().len(), 3);
    }

    #[test]
    fn resident_bytes_cover_every_shard_and_the_doc_table() {
        let words: &[(&str, &[&str])] = &[("a.txt", &["rust", "index"]), ("b.txt", &["rust"])];
        let one = snapshot_with(words, 1);
        assert_eq!(one.resident_bytes(), one.shards[0].resident_bytes() + one.docs().heap_bytes());
        assert!(one.docs().heap_bytes() >= "a.txtb.txt".len());
        // The same documents over two shards hold two buffers and two sets
        // of tables.
        let mut docs = DocTable::new();
        let shards: Vec<InMemoryIndex> = words
            .iter()
            .map(|(path, terms)| {
                let mut index = InMemoryIndex::new();
                index.insert_file(docs.insert(*path), terms.iter().map(|w| Term::from(*w)));
                index
            })
            .collect();
        let two = IndexSnapshot::from_shards(shards, docs, 1);
        assert_eq!(two.shard_count(), 2);
        assert!(two.resident_bytes() > one.resident_bytes());
    }

    #[test]
    fn raw_posting_lookups_match_search_semantics() {
        let snapshot = snapshot_with(
            &[("a.txt", &["rust", "index"]), ("b.txt", &["rust"]), ("c.txt", &["java"])],
            1,
        );
        // Every term's document frequency is the number of hits it finds.
        let mut terms: Vec<(String, usize)> = snapshot.terms().collect();
        terms.sort();
        assert_eq!(terms, [("index".into(), 1), ("java".into(), 1), ("rust".into(), 2)]);
        for (term, doc_freq) in &terms {
            assert_eq!(snapshot.search(&Query::parse(term).unwrap()).len(), *doc_freq, "{term}");
        }
        assert!(snapshot.search(&Query::parse("cobol").unwrap()).is_empty());
        assert_eq!(snapshot.search(&Query::parse("ja*").unwrap()).len(), 1);
        let java = snapshot.search(&Query::parse("java").unwrap());
        assert_eq!(snapshot.docs().path(java.hits()[0].file_id), Some("c.txt"));
        // Ranked retrieval declines what it cannot score.
        assert!(snapshot.search_topk(&Query::parse("ja*").unwrap(), 5, &|| false).is_none());
        assert!(snapshot.search_topk(&Query::parse("java").unwrap(), 5, &|| false).is_some());
        // Sealed snapshots report their compression win.
        assert!(snapshot.posting_count() > 0);
        assert!(snapshot.posting_bytes() < snapshot.uncompressed_posting_bytes());
    }

    #[test]
    fn multi_shard_snapshot_unions_shards() {
        let mut docs = DocTable::new();
        let a = docs.insert("a.txt");
        let b = docs.insert("b.txt");
        let mut shard0 = InMemoryIndex::new();
        shard0.insert_file(a, [Term::from("rust")]);
        let mut shard1 = InMemoryIndex::new();
        shard1.insert_file(b, [Term::from("rust"), Term::from("search")]);

        let snapshot = IndexSnapshot::from_shards(vec![shard0, shard1], docs, 3);
        assert_eq!(snapshot.shard_count(), 2);
        let results = snapshot.search(&Query::parse("rust").unwrap());
        assert_eq!(results.paths(), vec!["a.txt", "b.txt"]);
        let results = snapshot.search(&Query::parse("rust search").unwrap());
        assert_eq!(results.paths(), vec!["b.txt"]);
    }

    #[test]
    fn cell_publishes_new_generations_without_disturbing_held_arcs() {
        let cell = SnapshotCell::new(snapshot_with(&[("old.txt", &["stale"])], 1));
        let held = cell.load();
        assert_eq!(held.generation(), 1);

        let displaced = cell.publish(snapshot_with(&[("new.txt", &["fresh"])], 2));
        assert_eq!(displaced, 1);
        assert_eq!(cell.generation(), 2);

        // The held image still answers from the old generation.
        assert_eq!(held.search(&Query::parse("stale").unwrap()).len(), 1);
        assert_eq!(held.search(&Query::parse("fresh").unwrap()).len(), 0);
        // A fresh load sees the new one.
        let fresh = cell.load();
        assert_eq!(fresh.search(&Query::parse("fresh").unwrap()).len(), 1);
    }

    #[test]
    fn concurrent_reloads_issue_distinct_generations() {
        let dir = std::env::temp_dir().join(format!(
            "dsearch-server-reload-race-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = IndexStore::open(&dir).unwrap();
        let mut docs = DocTable::new();
        let id = docs.insert("a.txt");
        let mut index = InMemoryIndex::new();
        index.insert_file(id, [Term::from("alpha")]);
        store.commit(&index, &docs).unwrap();

        let cell = SnapshotCell::new(IndexSnapshot::load(&store, 1).unwrap());
        let generations: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cell = &cell;
                    let store = IndexStore::open(&dir).unwrap();
                    scope.spawn(move || cell.reload(&store).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Every racing reload got its own generation number, and the cell
        // ended up serving the newest one.
        let mut sorted = generations.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), generations.len(), "duplicate generations: {generations:?}");
        assert_eq!(cell.generation(), *sorted.last().unwrap());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_and_reload_from_a_store() {
        let dir = std::env::temp_dir().join(format!(
            "dsearch-server-snap-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = IndexStore::open(&dir).unwrap();

        let mut docs = DocTable::new();
        let id = docs.insert("first.txt");
        let mut index = InMemoryIndex::new();
        index.insert_file(id, [Term::from("alpha")]);
        store.commit(&index, &docs).unwrap();

        let cell = SnapshotCell::new(IndexSnapshot::load(&store, 1).unwrap());
        assert_eq!(cell.load().search(&Query::parse("alpha").unwrap()).len(), 1);
        assert!(cell.load().load_time() > Duration::ZERO);

        // Re-index adds a document; reload publishes generation 2.
        let id2 = docs.insert("second.txt");
        index.insert_file(id2, [Term::from("alpha"), Term::from("beta")]);
        store.replace_with(std::slice::from_ref(&index), &docs).unwrap();
        let generation = cell.reload(&store).unwrap();
        assert_eq!(generation, 2);
        assert_eq!(cell.load().search(&Query::parse("alpha").unwrap()).len(), 2);
        assert!(cell.load().load_time() > Duration::ZERO);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
