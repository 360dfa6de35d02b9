//! Sealed, immutable shards: the serving-side form of an index.
//!
//! An [`InMemoryIndex`] is the *build* structure — a hash map of mutable
//! posting vectors.  A [`SealedShard`] is what a serving snapshot actually
//! reads: a sorted term dictionary (`Arc<str>`-interned, so sealing bumps
//! reference counts instead of copying the vocabulary) aligned with one
//! [`CompressedPostings`] per term.  Sealing buys three things at once:
//!
//! * **memory** — block-compressed postings instead of 4 bytes per id, and
//!   one shared copy of each term string;
//! * **prefix lookups** — `word*` resolves to a contiguous dictionary range
//!   (binary search twice, no hash-table scan, no per-term map lookups);
//! * **skip-aware evaluation** — every posting list hands out a
//!   [`BlockCursor`](crate::block::BlockCursor) whose `seek` hops the skip
//!   table, so skewed intersections never decode the blocks they skip.
//!
//! Shards are plain data: build them once — from an index via
//! [`SealedShard::from_index`], or decode-free from a persisted segment via
//! [`SealedShard::from_entries`] — and share them behind an `Arc` for
//! serving.

use dsearch_text::hashtable::FnvHashMap;
use dsearch_text::Term;

use crate::block::CompressedPostings;
use crate::doc_table::FileId;
use crate::memory_index::InMemoryIndex;
use crate::posting::PostingList;

/// BM25 term-frequency saturation constant.
pub const BM25_K1: f32 = 1.2;
/// BM25 length-normalisation strength.
pub const BM25_B: f32 = 0.75;

/// The BM25 inverse document frequency of a term with `doc_freq` postings in
/// a shard of `total_docs` documents: `ln(1 + (N - df + 0.5)/(df + 0.5))`.
/// Computed in f64 and truncated once so seal-time bounds and query-time
/// scores agree bit for bit.
#[must_use]
pub fn bm25_idf(total_docs: u64, doc_freq: usize) -> f32 {
    let n = total_docs as f64;
    let df = doc_freq as f64;
    ((1.0 + (n - df + 0.5).max(0.0) / (df + 0.5)).ln()) as f32
}

/// One posting's BM25 contribution: `idf · tf(k1+1)/(tf + norm)` where
/// `norm = k1 · (1 - b + b · dl/avgdl)` is the document's precomputed
/// length norm.  The single shared expression keeps seal-time block bounds
/// and query-time scores identical.
#[must_use]
pub fn bm25_score(idf: f32, tf: u32, norm: f32) -> f32 {
    let tf = tf as f32;
    idf * (tf * (BM25_K1 + 1.0)) / (tf + norm)
}

/// The neutral length norm (`dl == avgdl`), used for documents without a
/// recorded length — under it `tf = 1` scores exactly `idf`.
#[must_use]
pub fn bm25_neutral_norm() -> f32 {
    BM25_K1
}

/// One immutable, compressed shard: sorted terms + compressed postings.
#[derive(Debug, Clone, Default)]
pub struct SealedShard {
    /// Sorted ascending; the dictionary prefix lookups range over.
    terms: Vec<Term>,
    /// `postings[i]` belongs to `terms[i]`.
    postings: Vec<CompressedPostings>,
    /// Exact-term fast path: term → dictionary slot.  The keys are `Arc`
    /// clones of the dictionary entries, so the map costs pointers, not a
    /// second vocabulary.
    lookup: FnvHashMap<Term, u32>,
    files: u64,
    posting_count: u64,
    /// Cached sum of `CompressedPostings::byte_size` (shards are immutable,
    /// so `!stats` reporting need not re-sweep the vocabulary).
    posting_bytes: usize,
    /// Sum of recorded document lengths (term occurrences); 0 when the
    /// build path carried no lengths and the shard is unscored.
    total_doc_len: u64,
    /// `norms[i]` is the BM25 length norm of `FileId(norm_base + i)`.
    /// Empty ⇒ unscored shard (every norm reads as neutral).
    norm_base: u32,
    norms: Vec<f32>,
}

impl PartialEq for SealedShard {
    fn eq(&self, other: &Self) -> bool {
        // The lookup map is derived from the dictionary; comparing it would
        // be redundant (and hash maps have no canonical order anyway).
        self.terms == other.terms
            && self.postings == other.postings
            && self.files == other.files
            && self.posting_count == other.posting_count
            && self.total_doc_len == other.total_doc_len
            && self.norm_base == other.norm_base
            && self.norms == other.norms
    }
}

impl Eq for SealedShard {}

impl SealedShard {
    /// Seals an index: sorts its vocabulary and compresses every posting
    /// list.  Terms are interned, so the dictionary shares the index's
    /// string storage instead of duplicating it.
    #[must_use]
    pub fn from_index(index: &InMemoryIndex) -> Self {
        let mut sealing = SealedTerms::new(index);
        let mut terms = Vec::with_capacity(sealing.len());
        let mut postings = Vec::with_capacity(sealing.len());
        let mut posting_count = 0u64;
        for (term, compressed) in &mut sealing {
            terms.push(term.clone());
            posting_count += compressed.len() as u64;
            postings.push(compressed);
        }
        let lookup = build_lookup(&terms);
        let posting_bytes = postings.iter().map(CompressedPostings::byte_size).sum();
        let (norm_base, norms, total_doc_len) = sealing.scoring.unwrap_or((0, Vec::new(), 0));
        SealedShard {
            terms,
            postings,
            lookup,
            files: sealing.files,
            posting_count,
            posting_bytes,
            total_doc_len,
            norm_base,
            norms,
        }
    }

    /// Rebuilds a shard from already-compressed parts (the decode-free load
    /// path from a persisted segment).  `entries` must be sorted by term;
    /// checked here so a corrupt segment cannot produce a shard whose binary
    /// searches silently miss.
    ///
    /// # Errors
    ///
    /// Fails when the terms are not strictly ascending.
    pub fn from_entries(
        entries: Vec<(Term, CompressedPostings)>,
        files: u64,
    ) -> Result<Self, String> {
        Self::from_entries_scored(entries, files, Vec::new())
    }

    /// Like [`SealedShard::from_entries`], but restoring the scoring header:
    /// `doc_lens` holds each document's recorded length (total term
    /// occurrences), from which the BM25 length norms are rebuilt exactly as
    /// [`SealedShard::from_index`] computes them.  An empty `doc_lens`
    /// yields an unscored shard (the v1/v2 segment path).
    ///
    /// # Errors
    ///
    /// Fails when the terms are not strictly ascending.
    pub fn from_entries_scored(
        entries: Vec<(Term, CompressedPostings)>,
        files: u64,
        doc_lens: Vec<(FileId, u32)>,
    ) -> Result<Self, String> {
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err("sealed shard entries must be sorted by term".to_owned());
        }
        let mut terms = Vec::with_capacity(entries.len());
        let mut postings = Vec::with_capacity(entries.len());
        let mut posting_count = 0u64;
        for (term, list) in entries {
            posting_count += list.len() as u64;
            terms.push(term);
            postings.push(list);
        }
        let lookup = build_lookup(&terms);
        let posting_bytes = postings.iter().map(CompressedPostings::byte_size).sum();
        let (norm_base, norms, total_doc_len) =
            build_norms(doc_lens.into_iter()).unwrap_or((0, Vec::new(), 0));
        Ok(SealedShard {
            terms,
            postings,
            lookup,
            files,
            posting_count,
            posting_bytes,
            total_doc_len,
            norm_base,
            norms,
        })
    }

    /// Number of distinct terms.
    #[must_use]
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` when the shard holds no terms.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of `(term, file)` postings.
    #[must_use]
    pub fn posting_count(&self) -> u64 {
        self.posting_count
    }

    /// Number of files this shard indexed.
    #[must_use]
    pub fn file_count(&self) -> u64 {
        self.files
    }

    /// The sorted term dictionary.
    #[must_use]
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// The compressed postings of one exact term (one hash lookup, no
    /// string binary search).
    #[must_use]
    pub fn postings(&self, term: &Term) -> Option<&CompressedPostings> {
        let index = *self.lookup.get(term.as_str())?;
        Some(&self.postings[index as usize])
    }

    /// The compressed postings of every term starting with `prefix`, as one
    /// contiguous dictionary range (two binary searches, zero allocation).
    #[must_use]
    pub fn prefix_postings(&self, prefix: &str) -> &[CompressedPostings] {
        let start = self.terms.partition_point(|term| term.as_str() < prefix);
        let count =
            self.terms[start..].iter().take_while(|term| term.as_str().starts_with(prefix)).count();
        &self.postings[start..start + count]
    }

    /// Iterates `(term, compressed postings)` pairs in dictionary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Term, &CompressedPostings)> {
        self.terms.iter().zip(self.postings.iter())
    }

    /// Bytes the compressed postings occupy (payload + skip tables).
    /// Computed once at seal time — shards are immutable.
    #[must_use]
    pub fn posting_bytes(&self) -> usize {
        self.posting_bytes
    }

    /// Bytes the same postings would occupy as raw `Vec<FileId>` storage
    /// (4 bytes per id), for compression-ratio reporting.
    #[must_use]
    pub fn uncompressed_posting_bytes(&self) -> usize {
        self.posting_count as usize * std::mem::size_of::<crate::doc_table::FileId>()
    }

    /// Whether the shard carries BM25 scoring state (document length norms
    /// and per-block score bounds).  Unscored shards — sealed from indices
    /// without recorded lengths, or loaded from v1/v2 segments — still
    /// rank, degrading gracefully to pure-idf scores.
    #[must_use]
    pub fn has_scoring(&self) -> bool {
        !self.norms.is_empty()
    }

    /// The BM25 length norm of `file`; neutral for unknown documents and on
    /// unscored shards.
    #[must_use]
    pub fn doc_norm(&self, file: FileId) -> f32 {
        norm_at(self.norm_base, &self.norms, file)
    }

    /// The shard-local BM25 inverse document frequency of a term appearing
    /// in `doc_freq` of this shard's documents.
    #[must_use]
    pub fn idf(&self, doc_freq: usize) -> f32 {
        bm25_idf(self.files, doc_freq)
    }

    /// Sum of recorded document lengths (0 on unscored shards).
    #[must_use]
    pub fn total_doc_len(&self) -> u64 {
        self.total_doc_len
    }
}

/// Seals an index one term at a time, in dictionary order: each item is a
/// term with its compressed postings and BM25 block bounds, exactly as
/// [`SealedShard::from_index`] (which collects this iterator) stores them.
/// The segment writer consumes it without collecting, so a whole sealed copy
/// of the index never exists beside the live one.
#[derive(Debug)]
pub struct SealedTerms<'a> {
    entries: std::vec::IntoIter<(&'a Term, &'a PostingList)>,
    files: u64,
    /// `(norm_base, norms, total_doc_len)`; `None` for an unscored index.
    scoring: Option<(u32, Vec<f32>, u64)>,
    /// Per-posting scores of the term being sealed, reused across terms.
    scores: Vec<f32>,
}

impl<'a> SealedTerms<'a> {
    /// Sorts the vocabulary of `index` and computes its length norms; no
    /// posting list is compressed until it is asked for.
    #[must_use]
    pub fn new(index: &'a InMemoryIndex) -> Self {
        let mut entries: Vec<(&Term, &PostingList)> = index.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        SealedTerms {
            entries: entries.into_iter(),
            files: index.file_count(),
            scoring: build_norms(index.doc_lens()),
            scores: Vec::new(),
        }
    }
}

impl<'a> Iterator for SealedTerms<'a> {
    type Item = (&'a Term, CompressedPostings);

    fn next(&mut self) -> Option<Self::Item> {
        let (term, list) = self.entries.next()?;
        let mut compressed = CompressedPostings::from_list(list);
        if let Some((base, norms, _)) = &self.scoring {
            let idf = bm25_idf(self.files, list.len());
            self.scores.clear();
            self.scores.extend(
                list.iter_counted().map(|(id, tf)| bm25_score(idf, tf, norm_at(*base, norms, id))),
            );
            compressed.score_blocks(&self.scores);
        }
        Some((term, compressed))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl ExactSizeIterator for SealedTerms<'_> {}

/// Builds the dense BM25 norm table from `(file, document length)` pairs:
/// `(norm_base, norms, total_doc_len)`.  Returns `None` (unscored) when no
/// lengths were recorded or they sum to zero.  Order-insensitive, so the
/// seal path (hash-map iteration) and the segment-load path (sorted pairs)
/// produce identical tables.  The table spans `[min_id ..= max_id]`; ids
/// without a recorded length read as the neutral norm.
fn build_norms<I: Iterator<Item = (FileId, u32)>>(lens: I) -> Option<(u32, Vec<f32>, u64)> {
    let pairs: Vec<(FileId, u32)> = lens.collect();
    if pairs.is_empty() {
        return None;
    }
    let total: u64 = pairs.iter().map(|&(_, len)| u64::from(len)).sum();
    if total == 0 {
        return None;
    }
    let avg = total as f64 / pairs.len() as f64;
    let base = pairs.iter().map(|&(id, _)| id.as_u32()).min().expect("non-empty");
    let top = pairs.iter().map(|&(id, _)| id.as_u32()).max().expect("non-empty");
    let mut norms = vec![bm25_neutral_norm(); (top - base + 1) as usize];
    for (id, len) in pairs {
        let scale = 1.0 - f64::from(BM25_B) + f64::from(BM25_B) * (f64::from(len) / avg);
        norms[(id.as_u32() - base) as usize] = (f64::from(BM25_K1) * scale) as f32;
    }
    Some((base, norms, total))
}

/// Norm lookup against a dense table rooted at `base`; out-of-table ids
/// (no recorded length) read as the neutral norm.
fn norm_at(base: u32, norms: &[f32], id: FileId) -> f32 {
    norms.get(id.as_u32().wrapping_sub(base) as usize).copied().unwrap_or_else(bm25_neutral_norm)
}

fn build_lookup(terms: &[Term]) -> FnvHashMap<Term, u32> {
    let mut lookup = FnvHashMap::with_capacity(terms.len());
    for (slot, term) in terms.iter().enumerate() {
        lookup.insert(term.clone(), u32::try_from(slot).expect("under 4G terms per shard"));
    }
    lookup
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc_table::FileId;
    use proptest::prelude::*;

    fn t(s: &str) -> Term {
        Term::from(s)
    }

    fn sample_index() -> InMemoryIndex {
        let mut index = InMemoryIndex::new();
        index.insert_file(FileId(0), [t("index"), t("indexes"), t("rust")]);
        index.insert_file(FileId(1), [t("index"), t("into")]);
        index.insert_file(FileId(2), [t("rust"), t("zebra")]);
        index
    }

    #[test]
    fn sealing_preserves_lookups() {
        let index = sample_index();
        let shard = SealedShard::from_index(&index);
        assert_eq!(shard.term_count(), 5);
        assert_eq!(shard.posting_count(), 7);
        assert_eq!(shard.file_count(), 3);
        assert!(!shard.is_empty());

        let rust = shard.postings(&t("rust")).unwrap();
        assert_eq!(rust.to_list().doc_ids(), &[FileId(0), FileId(2)]);
        assert!(shard.postings(&t("cobol")).is_none());

        // Dictionary order and alignment.
        let terms: Vec<&str> = shard.terms().iter().map(Term::as_str).collect();
        assert_eq!(terms, ["index", "indexes", "into", "rust", "zebra"]);
        let via_iter: Vec<&str> = shard.iter().map(|(term, _)| term.as_str()).collect();
        assert_eq!(via_iter, terms);
    }

    #[test]
    fn prefix_ranges_match_linear_expectations() {
        let shard = SealedShard::from_index(&sample_index());
        assert_eq!(shard.prefix_postings("inde").len(), 2);
        assert_eq!(shard.prefix_postings("in").len(), 3);
        assert_eq!(shard.prefix_postings("").len(), 5);
        assert!(shard.prefix_postings("zz").is_empty());
        assert!(shard.prefix_postings("zzzz").is_empty());
        assert_eq!(shard.prefix_postings("zebra").len(), 1);
    }

    #[test]
    fn sealing_interns_rather_than_copies_terms() {
        let index = sample_index();
        let shard = SealedShard::from_index(&index);
        // Each dictionary entry shares its text with the source index's key
        // (2+ owners) instead of holding a private copy.
        assert!(shard.terms().iter().all(|term| term.shared_count() >= 2));
    }

    #[test]
    fn compression_beats_raw_storage_on_real_shapes() {
        let mut index = InMemoryIndex::new();
        for i in 0..5_000u32 {
            index.insert_file(FileId(i), [t("common"), Term::from(format!("rare{i:05}"))]);
        }
        let shard = SealedShard::from_index(&index);
        assert!(
            shard.posting_bytes() * 2 <= shard.uncompressed_posting_bytes(),
            "expected >= 2x compression, got {} vs {}",
            shard.posting_bytes(),
            shard.uncompressed_posting_bytes()
        );
    }

    #[test]
    fn counted_seal_scores_blocks() {
        let mut index = InMemoryIndex::new();
        index.insert_file_counted(FileId(3), [(t("rust"), 4u32), (t("search"), 1)]);
        index.insert_file_counted(FileId(7), [(t("rust"), 1u32), (t("index"), 2)]);
        let shard = SealedShard::from_index(&index);
        assert!(shard.has_scoring());
        assert_eq!(shard.total_doc_len(), 8);

        let rust = shard.postings(&t("rust")).unwrap();
        assert!(rust.max_score() > 0.0);
        // The stored bound is admissible: at least the true best score.
        let idf = shard.idf(2);
        let best = bm25_score(idf, 4, shard.doc_norm(FileId(3))).max(bm25_score(
            idf,
            1,
            shard.doc_norm(FileId(7)),
        ));
        assert!(rust.block_score_bound(0) >= best);
        // tf survives sealing.
        assert_eq!(rust.to_list().tf_of(FileId(3)), Some(4));

        // Longer-than-average docs get a norm above neutral, shorter below.
        assert!(shard.doc_norm(FileId(3)) > bm25_neutral_norm());
        assert!(shard.doc_norm(FileId(7)) < bm25_neutral_norm());
        // Unknown documents read as neutral.
        assert_eq!(shard.doc_norm(FileId(999)).to_bits(), bm25_neutral_norm().to_bits());
    }

    #[test]
    fn uncounted_seal_is_scored_with_tf_one() {
        // insert_file records each distinct term once, so tf = 1 everywhere
        // and the list max is the best tf=1 score across its documents.
        let shard = SealedShard::from_index(&sample_index());
        assert!(shard.has_scoring());
        let rust = shard.postings(&t("rust")).unwrap();
        let idf = shard.idf(2);
        let expected = bm25_score(idf, 1, shard.doc_norm(FileId(0))).max(bm25_score(
            idf,
            1,
            shard.doc_norm(FileId(2)),
        ));
        assert_eq!(rust.max_score().to_bits(), expected.to_bits());
    }

    #[test]
    fn scored_entries_roundtrip_matches_from_index() {
        let mut index = InMemoryIndex::new();
        index.insert_file_counted(FileId(0), [(t("a"), 3u32), (t("b"), 1)]);
        index.insert_file_counted(FileId(5), [(t("b"), 7u32)]);
        let sealed = SealedShard::from_index(&index);
        let entries: Vec<(Term, CompressedPostings)> =
            sealed.iter().map(|(term, cp)| (term.clone(), cp.clone())).collect();
        let mut lens: Vec<(FileId, u32)> = index.doc_lens().collect();
        lens.sort_unstable_by_key(|&(id, _)| id);
        let restored = SealedShard::from_entries_scored(entries, index.file_count(), lens).unwrap();
        assert_eq!(restored, sealed);
        assert!(restored.has_scoring());
        assert_eq!(restored.doc_norm(FileId(5)).to_bits(), sealed.doc_norm(FileId(5)).to_bits());
    }

    #[test]
    fn from_entries_validates_order() {
        let a = CompressedPostings::from_sorted(&[FileId(0)]);
        let ok =
            SealedShard::from_entries(vec![(t("alpha"), a.clone()), (t("beta"), a.clone())], 1)
                .unwrap();
        assert_eq!(ok.term_count(), 2);
        let err = SealedShard::from_entries(vec![(t("beta"), a.clone()), (t("alpha"), a)], 1);
        assert!(err.is_err());
    }

    proptest! {
        /// A sealed shard answers exactly what the source index answers, for
        /// every term and prefix.
        #[test]
        fn sealed_lookups_match_index(
            docs in proptest::collection::vec(
                (0u32..64, proptest::collection::vec("[a-c]{1,4}", 1..6)),
                1..30,
            ),
            probe in "[a-c]{0,3}",
        ) {
            let mut index = InMemoryIndex::new();
            for (file, words) in &docs {
                let mut uniq = words.clone();
                uniq.sort();
                uniq.dedup();
                index.insert_file(FileId(*file), uniq.iter().map(|w| Term::from(w.as_str())));
            }
            let shard = SealedShard::from_index(&index);
            prop_assert_eq!(shard.term_count(), index.term_count());
            prop_assert_eq!(shard.posting_count(), index.posting_count());

            // Exact lookups agree for the probe and for every indexed term.
            let probe_term = Term::from(probe.as_str());
            match (index.postings(&probe_term), shard.postings(&probe_term)) {
                (Some(list), Some(cp)) => prop_assert_eq!(&cp.to_list(), list),
                (None, None) => {}
                other => prop_assert!(false, "lookup mismatch: {other:?}"),
            }
            // Prefix ranges cover the same multiset of lists the scan finds.
            let mut scanned: Vec<Vec<FileId>> = index.prefix_lists(&probe)
                .iter().map(|l| l.doc_ids().to_vec()).collect();
            scanned.sort();
            let mut ranged: Vec<Vec<FileId>> = shard.prefix_postings(&probe)
                .iter().map(|cp| cp.to_list().doc_ids().to_vec()).collect();
            ranged.sort();
            prop_assert_eq!(ranged, scanned);
        }
    }
}
