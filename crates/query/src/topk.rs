//! The bounded candidate heap every evaluation selects its hits with.
//!
//! [`TopK`] keeps the best `k` `Scored` candidates offered to it, in the
//! order [`SearchResults`](crate::SearchResults) sorts by.  Its worst kept
//! score is the threshold θ the evaluator's MaxScore pruning compares upper
//! bounds against.  A candidate is its id, score and matched-term count plus
//! its path's rank in the doc table ([`DocTable::path_ranks`]), so a score
//! tie — every offer of a boolean query is one — is settled by comparing two
//! integers, never two paths; only the `k` survivors take their paths, as
//! shared strings.
//!
//! The tests below also pin what the evaluator's ranked retrieval owes to
//! this heap: `k` bounds, score order, and pruning against the threshold.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

use dsearch_index::{DocTable, FileId};

use crate::results::{score_from_rank_bits, score_rank_bits, Hit};

/// Most candidate slots reserved up front: a heap that keeps more grows as
/// candidates arrive.
const PRESIZED: usize = 1024;

/// A fully scored candidate document, packed into one integer whose order is
/// "greater = better": higher score (its bits in total order), then more
/// matched terms, then the *smaller* path rank — the smaller path, then the
/// smaller id — then the smaller id; the order
/// [`SearchResults`](crate::SearchResults) sorts by, in one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Scored(u128);

impl Scored {
    /// `rank` is the id's position in the doc table's path order
    /// (`u32::MAX` for an id the table does not know).
    fn new(id: FileId, score: f32, matched: usize, rank: u32) -> Self {
        let matched = u32::try_from(matched).unwrap_or(u32::MAX);
        Scored(
            u128::from(score_rank_bits(score)) << 96
                | u128::from(matched) << 64
                | u128::from(!rank) << 32
                | u128::from(!id.as_u32()),
        )
    }

    fn score(self) -> f32 {
        score_from_rank_bits((self.0 >> 96) as u32)
    }

    fn matched(self) -> usize {
        (self.0 >> 64) as u32 as usize
    }

    fn id(self) -> FileId {
        FileId(!(self.0 as u32))
    }
}

/// The best `k` candidates seen so far.  Until `k` have arrived they are
/// only collected; the `k`-th turns them into a min-heap whose top is the
/// worst kept candidate.  An unbounded `k` therefore never pays for heap
/// order at all — ids (and so, mostly, paths) arrive ascending, the worst
/// order for a heap that keeps everything.
pub(crate) struct TopK<'a> {
    k: usize,
    docs: &'a DocTable,
    ranks: &'a [u32],
    filling: Vec<Reverse<Scored>>,
    full: BinaryHeap<Reverse<Scored>>,
    /// The worst kept score once `k` are kept, `-inf` until then.
    threshold: f64,
}

impl<'a> TopK<'a> {
    /// An empty heap for `k` candidates whose paths `docs` holds.
    pub(crate) fn new(k: usize, docs: &'a DocTable) -> Self {
        TopK {
            k,
            docs,
            ranks: docs.path_ranks(),
            filling: Vec::with_capacity(k.min(PRESIZED)),
            full: BinaryHeap::new(),
            threshold: f64::NEG_INFINITY,
        }
    }

    /// The score every further candidate has to reach (`-inf` until `k`
    /// candidates are kept).
    pub(crate) fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Offers document `id`, scored `score` with `matched` terms.
    pub(crate) fn offer(&mut self, id: FileId, score: f32, matched: usize) {
        let rank = self.ranks.get(id.as_usize()).copied().unwrap_or(u32::MAX);
        let candidate = Scored::new(id, score, matched, rank);
        if self.full.len() == self.k {
            if let Some(mut worst) = self.full.peek_mut() {
                if candidate > worst.0 {
                    *worst = Reverse(candidate);
                }
            }
        } else {
            self.filling.push(Reverse(candidate));
            if self.filling.len() == self.k {
                self.full = BinaryHeap::from(std::mem::take(&mut self.filling));
            }
        }
        if let Some(Reverse(worst)) = self.full.peek() {
            self.threshold = f64::from(worst.score());
        }
    }

    /// The kept candidates as hits, best first: sorted as integers, so the
    /// sort [`SearchResults::new`](crate::SearchResults::new) makes of them
    /// finds one run and compares no path.
    pub(crate) fn into_hits(self) -> Vec<Hit> {
        let mut kept = if self.filling.is_empty() { self.full.into_vec() } else { self.filling };
        kept.sort_unstable();
        let mut hits = Vec::with_capacity(kept.len());
        hits.extend(kept.into_iter().map(|Reverse(c)| Hit {
            file_id: c.id(),
            path: self.docs.shared_path(c.id()).map_or_else(unknown_path, Arc::clone),
            matched_terms: c.matched(),
            score: c.score(),
        }));
        hits
    }
}

/// The path reported for an id the doc table does not know.
fn unknown_path() -> Arc<str> {
    static UNKNOWN: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(UNKNOWN.get_or_init(|| Arc::from("<unknown>")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{evaluate, scorable, Scorer};
    use crate::{Query, SearchResults};
    use dsearch_index::{DocTable, InMemoryIndex, SealedShard};
    use dsearch_text::Term;

    fn no_cancel() -> bool {
        false
    }

    fn ranked(shards: &[SealedShard], docs: &DocTable, q: &Query, k: usize) -> SearchResults {
        evaluate(shards, docs, q, Scorer::Bm25, k, &no_cancel).0
    }

    /// Three docs over two terms with distinct frequencies and lengths.
    fn fixture() -> (Vec<SealedShard>, DocTable) {
        let mut docs = DocTable::new();
        let a = docs.insert("a.txt");
        let b = docs.insert("b.txt");
        let c = docs.insert("c.txt");
        let mut index = InMemoryIndex::new();
        index.insert_file_counted(a, [(Term::from("rust"), 4u32), (Term::from("index"), 1)]);
        index.insert_file_counted(b, [(Term::from("rust"), 1u32)]);
        index.insert_file_counted(c, [(Term::from("index"), 2u32), (Term::from("query"), 2)]);
        (vec![SealedShard::from_index(&index)], docs)
    }

    #[test]
    fn bounded_heap_keeps_the_best_k_whatever_the_arrival_order() {
        let paths = ["d", "b", "e", "a", "c"];
        let docs: DocTable = paths.iter().map(|p| p.to_string()).collect();
        let offer_all = |top: &mut TopK<'_>| {
            for (i, path) in paths.iter().enumerate() {
                top.offer(FileId(i as u32), 0.0, 1 + usize::from(*path == "e"));
            }
        };
        let mut top = TopK::new(3, &docs);
        offer_all(&mut top);
        let hits = top.into_hits();
        assert_eq!(hits.capacity(), 3, "the survivors' vector holds nothing else");
        // The hits share the doc table's path strings.
        assert!(hits.iter().all(|h| Arc::ptr_eq(&h.path, docs.shared_path(h.file_id).unwrap())));
        // More matched terms first, then the smaller paths.
        assert_eq!(SearchResults::new(hits).paths(), ["e", "a", "b"]);
        let mut none = TopK::new(0, &docs);
        none.offer(FileId(0), 0.0, 1);
        assert!(none.into_hits().is_empty());
        // Fewer candidates than `k`: all kept, no threshold yet.
        let mut roomy = TopK::new(9, &docs);
        offer_all(&mut roomy);
        assert_eq!(roomy.threshold(), f64::NEG_INFINITY);
        assert_eq!(roomy.into_hits().len(), 5);
    }

    #[test]
    fn ties_rank_by_path_then_id_as_results_sort() {
        // Duplicate and interleaved paths, inserted out of order: the heap
        // keeps the first `k` of exactly the order `SearchResults` sorts by.
        let paths = ["b", "a", "b", "c", "a", "a/b", "a"];
        let docs: DocTable = paths.iter().map(|p| p.to_string()).collect();
        let offered = |k: usize| {
            let mut top = TopK::new(k, &docs);
            for i in (0..paths.len()).rev() {
                top.offer(FileId(i as u32), 1.5, 2);
            }
            top.offer(FileId(99), 1.5, 2);
            SearchResults::new(top.into_hits())
        };
        let all = offered(usize::MAX);
        let keys: Vec<(&str, u32)> = all.hits().iter().map(|h| (&*h.path, h.file_id.0)).collect();
        let expected = [
            ("<unknown>", 99),
            ("a", 1),
            ("a", 4),
            ("a", 6),
            ("a/b", 5),
            ("b", 0),
            ("b", 2),
            ("c", 3),
        ];
        assert_eq!(keys, expected);
        // An id the table does not know is the last to be kept.
        for k in 1..=7 {
            assert_eq!(offered(k).hits(), &all.hits()[1..=k], "k={k}");
        }
    }

    #[test]
    fn prefix_and_not_queries_are_not_scorable() {
        let (shards, docs) = fixture();
        for raw in ["rus*", "rust NOT index", "rust inde*"] {
            let q = Query::parse(raw).unwrap();
            assert!(!scorable(&q), "{raw}");
            // Asked for BM25, they are evaluated by the constant scorer.
            let results = ranked(&shards, &docs, &q, 10);
            assert!(!results.is_empty(), "{raw}");
            assert!(results.hits().iter().all(|h| h.score == 0.0), "{raw}");
        }
        assert!(scorable(&Query::parse("rust index").unwrap()));
    }

    #[test]
    fn single_term_ranks_by_term_frequency() {
        let (shards, docs) = fixture();
        let results = ranked(&shards, &docs, &Query::parse("rust").unwrap(), 10);
        // a.txt has tf 4 (and is only slightly longer): it outranks b.txt.
        assert_eq!(results.paths(), vec!["a.txt", "b.txt"]);
        assert!(results.hits()[0].score > results.hits()[1].score);
        assert!(results.hits().iter().all(|h| h.score > 0.0));
    }

    #[test]
    fn or_query_sums_scores_and_respects_k() {
        let (shards, docs) = fixture();
        let q = Query::parse("rust OR index OR query").unwrap();
        let all = ranked(&shards, &docs, &q, 10);
        assert_eq!(all.len(), 3);
        let top1 = ranked(&shards, &docs, &q, 1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1.paths()[0], all.paths()[0]);
        assert_eq!(top1.hits()[0].score.to_bits(), all.hits()[0].score.to_bits());
    }

    #[test]
    fn and_query_scores_only_conjunctive_matches() {
        let (shards, docs) = fixture();
        let results = ranked(&shards, &docs, &Query::parse("rust index").unwrap(), 10);
        assert_eq!(results.paths(), vec!["a.txt"]);
        assert_eq!(results.hits()[0].matched_terms, 2);
    }

    #[test]
    fn k_zero_and_unknown_terms_yield_empty_results() {
        let (shards, docs) = fixture();
        assert!(ranked(&shards, &docs, &Query::parse("rust").unwrap(), 0).is_empty());
        let missing = Query::parse("cobol OR fortran").unwrap();
        let (none, stats) = evaluate(&shards, &docs, &missing, Scorer::Bm25, 5, &no_cancel);
        assert!(none.is_empty());
        // No cursors were opened, so no blocks were touched (the lookup
        // timer still ran — only the counters are zero by construction).
        assert_eq!((stats.blocks_scored, stats.blocks_skipped), (0, 0));
    }

    #[test]
    fn cancellation_returns_partial_results() {
        let (shards, docs) = fixture();
        let q = Query::parse("rust OR index").unwrap();
        let (partial, stats) = evaluate(&shards, &docs, &q, Scorer::Bm25, 10, &(|| true));
        assert!(partial.is_empty());
        assert!(stats.cancelled);
        assert!(!evaluate(&shards, &docs, &q, Scorer::Bm25, 10, &no_cancel).1.cancelled);
    }

    #[test]
    fn multi_shard_snapshot_scores_like_separate_shards() {
        // The same corpus sealed as one shard vs two: per-shard scoring
        // statistics differ, but each document's score is computed from its
        // own shard either way, so a combined evaluation must agree with
        // evaluating the shards one at a time.
        let mut docs = DocTable::new();
        let ids: Vec<FileId> = (0..6).map(|i| docs.insert(format!("doc{i}.txt"))).collect();
        let mut left = InMemoryIndex::new();
        let mut right = InMemoryIndex::new();
        for (i, &id) in ids.iter().enumerate() {
            let target = if i % 2 == 0 { &mut left } else { &mut right };
            let tf = 1 + (i as u32 % 3);
            target.insert_file_counted(id, [(Term::from("alpha"), tf), (Term::from("beta"), 1)]);
        }
        let shards = vec![SealedShard::from_index(&left), SealedShard::from_index(&right)];
        let q = Query::parse("alpha OR beta").unwrap();
        let combined = ranked(&shards, &docs, &q, 10);
        let l = ranked(&shards[..1], &docs, &q, 10);
        let r = ranked(&shards[1..], &docs, &q, 10);
        let mut separate: Vec<Hit> = l.into_iter().chain(r).collect();
        separate.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| b.matched_terms.cmp(&a.matched_terms))
                .then_with(|| a.path.cmp(&b.path))
        });
        let combined_keys: Vec<(u32, &str)> =
            combined.hits().iter().map(|h| (h.score.to_bits(), &*h.path)).collect();
        let separate_keys: Vec<(u32, &str)> =
            separate.iter().map(|h| (h.score.to_bits(), &*h.path)).collect();
        assert_eq!(combined_keys, separate_keys);
    }

    #[test]
    fn pruning_skips_blocks_on_skewed_lists() {
        // A long common list where one rare term concentrates the top
        // scores: once θ passes the common list's bound, only the rare list
        // proposes candidates and most of the common list's blocks are
        // never entered.
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for i in 0..20_000u32 {
            let id = docs.insert(format!("doc{i:05}.txt"));
            let mut words = vec![(Term::from("common"), 1u32)];
            if i % 100 == 0 && i < 1_000 {
                words.push((Term::from("rare"), 8));
            }
            index.insert_file_counted(id, words);
        }
        let shards = vec![SealedShard::from_index(&index)];
        let q = Query::parse("common OR rare").unwrap();
        let (results, stats) = evaluate(&shards, &docs, &q, Scorer::Bm25, 10, &no_cancel);
        assert_eq!(results.len(), 10);
        // Every top hit contains the rare high-scoring term.
        assert!(results.hits().iter().all(|h| h.matched_terms == 2));
        assert!(
            stats.blocks_skipped > stats.blocks_scored,
            "expected pruning to skip most blocks: {stats:?}"
        );
    }

    #[test]
    fn maxscore_matches_exhaustive_on_dense_overlap() {
        // Dense overlapping lists put most candidates in several groups at
        // once, each group's bound close to what it adds — the worst case
        // for MaxScore, which can rule out little; results must still match
        // the exhaustive evaluation exactly.
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for i in 0..3_000u32 {
            let id = docs.insert(format!("doc{i:04}.txt"));
            let mut words = vec![(Term::from("a"), 1 + i % 4)];
            if i % 2 == 0 {
                words.push((Term::from("b"), 1 + i % 3));
            }
            if i % 3 == 0 {
                words.push((Term::from("c"), 1));
            }
            index.insert_file_counted(id, words);
        }
        let shards = vec![SealedShard::from_index(&index)];
        for raw in ["a OR b OR c", "a b c", "b c"] {
            let q = Query::parse(raw).unwrap();
            let pruned = ranked(&shards, &docs, &q, 25);
            // An unbounded k never raises the threshold, so nothing is
            // pruned: the exhaustive reference.
            let exhaustive = ranked(&shards, &docs, &q, usize::MAX);
            assert_eq!(pruned.len(), 25, "{raw}");
            for (p, e) in pruned.hits().iter().zip(exhaustive.hits()) {
                assert_eq!(p.score.to_bits(), e.score.to_bits(), "{raw}");
                assert_eq!(p.path, e.path, "{raw}");
                assert_eq!(p.matched_terms, e.matched_terms, "{raw}");
            }
        }
    }
}
