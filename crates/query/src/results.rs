//! Search results, and the cross-shard merge of per-shard result sets.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use dsearch_index::FileId;

/// One matching file.
///
/// The path is the doc table's own `Arc<str>`, so producing a hit and
/// converting results to their cross-shard [`RankedHit`] form
/// ([`SearchResults::ranked`]) are reference-count bumps, not string copies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hit {
    /// The matching file's id.
    pub file_id: FileId,
    /// The matching file's path.
    pub path: Arc<str>,
    /// Number of query terms the file matched (the secondary ranking key).
    pub matched_terms: usize,
    /// BM25 relevance score (`0.0` for unranked boolean evaluation).
    pub score: f32,
}

/// Maps a score to a `u32` whose unsigned order equals [`f32::total_cmp`]
/// order, so float-keyed heap entries and hash-map keys stay `Ord`/`Eq`.
pub(crate) fn score_rank_bits(score: f32) -> u32 {
    let bits = score.to_bits();
    if bits & 0x8000_0000 == 0 {
        bits | 0x8000_0000
    } else {
        !bits
    }
}

/// The score [`score_rank_bits`] mapped to `bits`.
pub(crate) fn score_from_rank_bits(bits: u32) -> f32 {
    f32::from_bits(if bits & 0x8000_0000 == 0 { !bits } else { bits & 0x7fff_ffff })
}

/// The shared result order: descending score, then descending
/// `matched_terms`, then ascending path (ids are shard-local, so the path is
/// the tie-break that survives re-sharding), then ascending file id.
fn rank_cmp(a: &Hit, b: &Hit) -> std::cmp::Ordering {
    b.score
        .total_cmp(&a.score)
        .then_with(|| b.matched_terms.cmp(&a.matched_terms))
        .then_with(|| a.path.cmp(&b.path))
        .then_with(|| a.file_id.cmp(&b.file_id))
}

/// An ordered list of hits.
///
/// Hits are sorted by descending score, then descending `matched_terms`,
/// ties broken by ascending path (then file id) so results are deterministic
/// and agree with the cross-shard [`merge_ranked`] order.
///
/// Results also keep the text they were rendered to the first time
/// ([`SearchResults::render_once`]): a cached answer shared behind an `Arc`
/// is formatted once, however many requests it answers.  Equality is the
/// hits' alone.
#[derive(Debug, Clone, Default)]
pub struct SearchResults {
    hits: Vec<Hit>,
    rendered: OnceLock<String>,
}

impl PartialEq for SearchResults {
    fn eq(&self, other: &Self) -> bool {
        self.hits == other.hits
    }
}

impl SearchResults {
    /// Builds results from unsorted hits.
    #[must_use]
    pub fn new(mut hits: Vec<Hit>) -> Self {
        hits.sort_by(rank_cmp);
        SearchResults { hits, rendered: OnceLock::new() }
    }

    /// The hits as rendered by `render`, which runs on the first call only;
    /// every later call returns the same text.  Every caller of one value
    /// must therefore pass the same renderer — the serving protocol's body
    /// lines are the one.
    pub fn render_once(&self, render: impl FnOnce(&[Hit]) -> String) -> &str {
        self.rendered.get_or_init(|| render(&self.hits))
    }

    /// The hits, best first.
    #[must_use]
    pub fn hits(&self) -> &[Hit] {
        &self.hits
    }

    /// Number of hits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// Returns `true` when nothing matched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// The matching file ids, best first.
    #[must_use]
    pub fn file_ids(&self) -> Vec<FileId> {
        self.hits.iter().map(|h| h.file_id).collect()
    }

    /// The matching paths, best first.
    #[must_use]
    pub fn paths(&self) -> Vec<&str> {
        self.hits.iter().map(|h| &*h.path).collect()
    }

    /// Truncates the results to the best `n` hits and releases the capacity
    /// of the rest: callers cache the value, and a cached top-20 must not
    /// keep the allocation of the thousands of hits it was cut from.  A
    /// rendering of the longer list is dropped with them.
    pub fn truncate(&mut self, n: usize) {
        self.rendered.take();
        self.hits.truncate(n);
        self.hits.shrink_to_fit();
    }

    /// Bytes of the hit vector's heap allocation (its capacity, not its
    /// length) and of the rendered text, once there is one.  Path text is
    /// the doc table's, shared, and not counted here.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.hits.capacity() * std::mem::size_of::<Hit>()
            + self.rendered.get().map_or(0, String::capacity)
    }

    /// Converts the hits into the path-keyed form that crosses shard
    /// boundaries (shard-local file ids do not survive the wire).  Paths are
    /// shared `Arc<str>`s, so this clones no string data.
    #[must_use]
    pub fn ranked(&self) -> Vec<RankedHit> {
        self.hits
            .iter()
            .map(|h| RankedHit {
                path: Arc::clone(&h.path),
                matched_terms: h.matched_terms,
                score: h.score,
            })
            .collect()
    }
}

impl IntoIterator for SearchResults {
    type Item = Hit;
    type IntoIter = std::vec::IntoIter<Hit>;

    fn into_iter(self) -> Self::IntoIter {
        self.hits.into_iter()
    }
}

/// A ranked hit as it travels between shards.
///
/// File ids are shard-local (two `dsearch serve` processes both start at id
/// 0), so cross-shard results are keyed on the path instead.  The merge order
/// is descending score, then descending `matched_terms`, with ties broken by
/// ascending path — deterministic whatever order the shards assigned their
/// ids in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedHit {
    /// The matching file's path.
    pub path: Arc<str>,
    /// Number of query terms the file matched (the secondary ranking key).
    pub matched_terms: usize,
    /// BM25 relevance score (`0.0` for unranked boolean evaluation).
    pub score: f32,
}

impl RankedHit {
    /// Builds a hit (convenience for tests and fixtures).
    #[must_use]
    pub fn new(path: impl Into<Arc<str>>, matched_terms: usize, score: f32) -> Self {
        RankedHit { path: path.into(), matched_terms, score }
    }

    /// The cross-shard merge key: descending score, then descending
    /// `matched_terms`, ties broken by ascending path.  The score is mapped
    /// to its total-order bits so the key is `Ord` despite the float.
    #[must_use]
    pub fn merge_key(&self) -> (Reverse<u32>, Reverse<usize>, &str) {
        (Reverse(score_rank_bits(self.score)), Reverse(self.matched_terms), &*self.path)
    }
}

/// Merges per-shard ranked result lists into one list in merge-key order
/// (descending score, then descending `matched_terms`, path ascending within
/// a rank), keeping at most `limit` hits.
///
/// A k-way merge: a min-heap over one cursor per shard, so each output hit
/// costs `O(log k)`.  Shard inputs need not be pre-sorted (each
/// list is normalised first).  A path reported by several shards — replicated
/// shards, or a re-routed query racing a rebalance — is kept once with its
/// best merge key: the heap yields hits best-first, so the first occurrence
/// of a path is the one to keep.  Best-first also means the merge can stop as
/// soon as `limit` hits are out, instead of materialising everything and
/// truncating (pass `usize::MAX` for an unbounded merge).
#[must_use]
pub fn merge_ranked(mut parts: Vec<Vec<RankedHit>>, limit: usize) -> Vec<RankedHit> {
    /// Heap entry: the hit's merge key plus its (shard, position) cursor.
    type Cursor<'a> = Reverse<((Reverse<u32>, Reverse<usize>, &'a str), usize, usize)>;

    for part in &mut parts {
        part.sort_by(|a, b| a.merge_key().cmp(&b.merge_key()));
    }
    let mut heap: BinaryHeap<Cursor<'_>> = BinaryHeap::with_capacity(parts.len());
    for (shard, part) in parts.iter().enumerate() {
        if let Some(first) = part.first() {
            heap.push(Reverse((first.merge_key(), shard, 0)));
        }
    }
    let mut out: Vec<RankedHit> = Vec::new();
    let mut seen: HashSet<&str> = HashSet::new();
    while out.len() < limit {
        let Some(Reverse((_, shard, pos))) = heap.pop() else { break };
        let hit = &parts[shard][pos];
        if seen.insert(&*hit.path) {
            out.push(hit.clone());
        }
        if let Some(next) = parts[shard].get(pos + 1) {
            heap.push(Reverse((next.merge_key(), shard, pos + 1)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(id: u32, matched: usize) -> Hit {
        Hit {
            file_id: FileId(id),
            path: format!("f{id}.txt").into(),
            matched_terms: matched,
            score: 0.0,
        }
    }

    fn scored_hit(id: u32, matched: usize, score: f32) -> Hit {
        Hit {
            file_id: FileId(id),
            path: format!("f{id}.txt").into(),
            matched_terms: matched,
            score,
        }
    }

    #[test]
    fn sorts_by_matched_terms_then_path() {
        let results = SearchResults::new(vec![hit(3, 1), hit(1, 2), hit(2, 2)]);
        assert_eq!(results.file_ids(), vec![FileId(1), FileId(2), FileId(3)]);
        assert_eq!(results.hits()[0].matched_terms, 2);
        assert_eq!(results.paths()[2], "f3.txt");
    }

    #[test]
    fn score_dominates_matched_terms() {
        let results = SearchResults::new(vec![
            scored_hit(1, 3, 0.5),
            scored_hit(2, 1, 2.5),
            scored_hit(3, 2, 2.5),
        ]);
        // Highest score first; within a score tie, more matched terms first.
        assert_eq!(results.file_ids(), vec![FileId(3), FileId(2), FileId(1)]);
    }

    #[test]
    fn empty_results() {
        let results = SearchResults::default();
        assert!(results.is_empty());
        assert_eq!(results.len(), 0);
        assert!(results.file_ids().is_empty());
    }

    #[test]
    fn truncate_keeps_best() {
        let mut results = SearchResults::new(vec![hit(1, 3), hit(2, 2), hit(3, 1)]);
        results.truncate(2);
        assert_eq!(results.len(), 2);
        assert_eq!(results.hits()[1].file_id, FileId(2));
    }

    #[test]
    fn truncate_releases_the_capacity_it_cut() {
        let mut results = SearchResults::new((0..1000).map(|i| hit(i, 1)).collect());
        assert!(results.heap_bytes() >= 1000 * std::mem::size_of::<Hit>());
        results.truncate(20);
        assert_eq!(results.heap_bytes(), 20 * std::mem::size_of::<Hit>());
        // Truncating past the end cuts nothing.
        results.truncate(50);
        assert_eq!(results.len(), 20);
        assert_eq!(SearchResults::default().heap_bytes(), 0);
    }

    #[test]
    fn a_rendering_is_kept_until_truncate_and_counted() {
        let mut results = SearchResults::new(vec![hit(1, 3), hit(2, 2)]);
        let render = |hits: &[Hit]| hits.iter().map(|h| format!("{}\n", h.path)).collect();
        assert_eq!(results.render_once(render), "f1.txt\nf2.txt\n");
        // Later calls return the first rendering without running theirs.
        assert_eq!(results.render_once(|_| unreachable!()), "f1.txt\nf2.txt\n");
        assert!(results.heap_bytes() >= 2 * std::mem::size_of::<Hit>() + 14);
        // Equality is the hits', rendered or not.
        assert_eq!(results, SearchResults::new(vec![hit(2, 2), hit(1, 3)]));
        results.truncate(1);
        assert_eq!(results.render_once(render), "f1.txt\n");
    }

    #[test]
    fn into_iterator_yields_sorted_hits() {
        let results = SearchResults::new(vec![hit(2, 1), hit(1, 5)]);
        let collected: Vec<Hit> = results.into_iter().collect();
        assert_eq!(collected[0].file_id, FileId(1));
    }

    fn ranked(path: &str, matched: usize) -> RankedHit {
        RankedHit::new(path, matched, 0.0)
    }

    #[test]
    fn ranked_conversion_preserves_order_and_shares_paths() {
        let results = SearchResults::new(vec![scored_hit(3, 1, 0.25), scored_hit(1, 2, 1.5)]);
        let ranked = results.ranked();
        assert_eq!(
            ranked,
            vec![RankedHit::new("f1.txt", 2, 1.5), RankedHit::new("f3.txt", 1, 0.25)]
        );
        // The conversion shares the hit's path allocation instead of cloning.
        assert!(Arc::ptr_eq(&ranked[0].path, &results.hits()[0].path));
    }

    #[test]
    fn merge_ranked_interleaves_shards_best_first() {
        let merged = merge_ranked(
            vec![
                vec![ranked("a.txt", 2), ranked("c.txt", 1)],
                vec![ranked("b.txt", 2), ranked("d.txt", 1)],
            ],
            usize::MAX,
        );
        assert_eq!(
            merged,
            vec![ranked("a.txt", 2), ranked("b.txt", 2), ranked("c.txt", 1), ranked("d.txt", 1)]
        );
    }

    #[test]
    fn merge_ranked_orders_by_score_before_matched_terms() {
        let merged = merge_ranked(
            vec![
                vec![RankedHit::new("a.txt", 3, 0.5), RankedHit::new("c.txt", 1, 4.0)],
                vec![RankedHit::new("b.txt", 1, 2.0)],
            ],
            usize::MAX,
        );
        assert_eq!(
            merged,
            vec![
                RankedHit::new("c.txt", 1, 4.0),
                RankedHit::new("b.txt", 1, 2.0),
                RankedHit::new("a.txt", 3, 0.5)
            ]
        );
    }

    #[test]
    fn merge_ranked_dedupes_by_path_keeping_best_rank() {
        // The same path reported by two shards (replication) keeps its
        // highest-ranked occurrence, whichever shard reported it.
        let merged = merge_ranked(
            vec![vec![ranked("a.txt", 1), ranked("b.txt", 1)], vec![ranked("a.txt", 3)]],
            usize::MAX,
        );
        assert_eq!(merged, vec![ranked("a.txt", 3), ranked("b.txt", 1)]);
        let scored = merge_ranked(
            vec![vec![RankedHit::new("a.txt", 1, 0.5)], vec![RankedHit::new("a.txt", 1, 1.5)]],
            usize::MAX,
        );
        assert_eq!(scored, vec![RankedHit::new("a.txt", 1, 1.5)]);
    }

    #[test]
    fn merge_ranked_stops_at_the_limit() {
        let merged = merge_ranked(
            vec![
                vec![ranked("a.txt", 3), ranked("c.txt", 1)],
                vec![ranked("b.txt", 2), ranked("d.txt", 1)],
            ],
            2,
        );
        assert_eq!(merged, vec![ranked("a.txt", 3), ranked("b.txt", 2)]);
        assert!(merge_ranked(vec![vec![ranked("a.txt", 1)]], 0).is_empty());
    }

    #[test]
    fn merge_ranked_normalises_unsorted_inputs() {
        // Per-shard inputs sorted by shard-local file id (the wire order) may
        // have path ties in any order; the merge re-sorts each part.
        let merged = merge_ranked(vec![vec![ranked("z.txt", 1), ranked("a.txt", 2)], vec![]], 8);
        assert_eq!(merged, vec![ranked("a.txt", 2), ranked("z.txt", 1)]);
        assert!(merge_ranked(vec![], usize::MAX).is_empty());
        assert!(merge_ranked(vec![vec![], vec![]], usize::MAX).is_empty());
    }

    #[test]
    fn score_rank_bits_orders_like_total_cmp() {
        let values = [f32::NEG_INFINITY, -1.5, -0.0, 0.0, 0.25, 1.0, f32::INFINITY];
        for a in values {
            assert_eq!(score_from_rank_bits(score_rank_bits(a)).to_bits(), a.to_bits());
            for b in values {
                assert_eq!(
                    score_rank_bits(a).cmp(&score_rank_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }
}
