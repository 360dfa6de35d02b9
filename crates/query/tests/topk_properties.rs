//! Properties of BM25 top-k ranked retrieval: MaxScore pruning is
//! invisible.  For any corpus, any scorable query shape and any `k`, the
//! pruned evaluation must return bit-identical scores, in the same order,
//! as an exhaustive evaluation that scores every posting — including tie
//! runs of exact duplicate documents, `k` values past the match count, and
//! corpora large enough that lists span many blocks and θ rises inside the
//! evaluator's windows.  The constant scorer's bounded form is held to the
//! same standard: `search_limited(q, k)` is the first `k` hits of
//! `search(q)`.

use proptest::prelude::*;

use dsearch_index::{DocTable, InMemoryIndex, SealedShard};
use dsearch_query::{evaluate, PruneStats, Query, Scorer, SearchResults, Searcher};
use dsearch_text::Term;

// The block-scale corpus builds the boolean oracle too; only its BM25
// counterpart is asked here.
#[path = "support/block.rs"]
mod block;
#[allow(dead_code)]
#[path = "support/oracle.rs"]
mod oracle;
use block::block_corpus;

/// A small vocabulary so generated documents overlap on terms and score
/// ties are common.
const VOCAB: &[&str] = &["alpha", "beta", "gamma", "delta", "omega"];

fn term_subset(mask: u8) -> Vec<&'static str> {
    VOCAB.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, w)| *w).collect()
}

/// A document's terms and frequencies are a pure function of its mask, so
/// equal masks produce exact duplicates — documents that tie on score and
/// matched terms and must be ordered by path alone.
fn doc_terms(mask: u8) -> Vec<(Term, u32)> {
    VOCAB
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(i, w)| (Term::from(*w), 1 + u32::from(mask.wrapping_mul(i as u8 + 3)) % 5))
        .collect()
}

/// Seals the corpus as `shards` round-robin partitions of one doc table
/// (paths ascend with insertion order, so path ties equal id ties).
fn seal(masks: &[u8], shards: usize) -> (Vec<SealedShard>, DocTable) {
    let mut docs = DocTable::new();
    let mut indexes: Vec<InMemoryIndex> = (0..shards).map(|_| InMemoryIndex::new()).collect();
    for (i, &mask) in masks.iter().enumerate() {
        let id = docs.insert(format!("doc{i:03}.txt"));
        indexes[i % shards].insert_file_counted(id, doc_terms(mask));
    }
    (indexes.iter().map(SealedShard::from_index).collect(), docs)
}

/// The observable ranking: exact score bits, path, matched terms.
fn keys(results: &SearchResults) -> Vec<(u32, String, usize)> {
    results
        .hits()
        .iter()
        .map(|h| (h.score.to_bits(), h.path.to_string(), h.matched_terms))
        .collect()
}

/// BM25 top-`k` through the one evaluator.
fn search_topk(
    shards: &[SealedShard],
    docs: &DocTable,
    query: &Query,
    k: usize,
) -> (SearchResults, PruneStats) {
    evaluate(shards, docs, query, Scorer::Bm25, k, &|| false)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Pure disjunctions are where MaxScore prunes most — terms whose bounds
    /// cannot reach θ only ever seeked; pruning must be invisible next to an
    /// exhaustive reference for every `k`.
    #[test]
    fn maxscore_pruned_topk_equals_exhaustive(
        masks in proptest::collection::vec(1u8..32, 1..60),
        qmask in 1u8..32,
        k in 0usize..16,
    ) {
        let (shards, docs) = seal(&masks, 1);
        let raw = term_subset(qmask).join(" OR ");
        let query = Query::parse(&raw).unwrap();
        let (pruned, _) = search_topk(&shards, &docs, &query, k);
        let (full, full_stats) = search_topk(&shards, &docs, &query, usize::MAX);
        // With an unbounded k the threshold never rises, so the reference
        // run provably skipped nothing: it is genuinely exhaustive.
        prop_assert_eq!(full_stats.blocks_skipped, 0);
        let mut expected = keys(&full);
        expected.truncate(k);
        prop_assert_eq!(keys(&pruned), expected, "query {:?} k={}", raw, k);
    }

    /// A multi-term `AND` group is the one-child case of the same loop: its
    /// bounds are the sums of its terms'; `k` must only truncate.
    #[test]
    fn and_scored_topk_equals_exhaustive(
        masks in proptest::collection::vec(1u8..32, 1..60),
        qmask in 1u8..32,
        k in 0usize..16,
    ) {
        let (shards, docs) = seal(&masks, 1);
        let raw = term_subset(qmask).join(" ");
        let query = Query::parse(&raw).unwrap();
        let (pruned, _) = search_topk(&shards, &docs, &query, k);
        let (full, _) = search_topk(&shards, &docs, &query, usize::MAX);
        let mut expected = keys(&full);
        expected.truncate(k);
        prop_assert_eq!(keys(&pruned), expected, "query {:?} k={}", raw, k);
    }

    /// Masks drawn from {1, 2, 3} make most documents exact duplicates:
    /// long tie runs must come back sorted by score desc, matched desc,
    /// path asc — strictly, since paths are unique.
    #[test]
    fn ties_break_deterministically_by_path(
        masks in proptest::collection::vec(1u8..4, 2..60),
        k in 1usize..20,
    ) {
        let (shards, docs) = seal(&masks, 1);
        let query = Query::parse("alpha OR beta").unwrap();
        let (results, _) = search_topk(&shards, &docs, &query, k);
        for pair in results.hits().windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let ord = b
                .score
                .total_cmp(&a.score)
                .then_with(|| b.matched_terms.cmp(&a.matched_terms))
                .then_with(|| a.path.cmp(&b.path));
            prop_assert_eq!(
                ord,
                std::cmp::Ordering::Less,
                "hit {:?} must strictly outrank {:?}",
                (&a.path, a.score),
                (&b.path, b.score)
            );
        }
    }

    /// The bounded boolean answer is a prefix of the unbounded one, for any
    /// mix of AND, OR, NOT and prefix terms, over one index and over
    /// un-joined replicas.  Paths descend while ids ascend, so the path
    /// tie-break is not the id order the matches arrive in.
    #[test]
    fn search_limited_is_a_prefix_of_search(
        masks in proptest::collection::vec(1u8..32, 1..60),
        replicas in 1usize..4,
        groups in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..5, any::<bool>()), 1..4),
                proptest::collection::vec(0usize..5, 0..3),
            ),
            1..4,
        ),
        k in 0usize..24,
    ) {
        let mut docs = DocTable::new();
        let mut parts: Vec<InMemoryIndex> = (0..replicas).map(|_| InMemoryIndex::new()).collect();
        for (i, &mask) in masks.iter().enumerate() {
            let id = docs.insert(format!("doc{:03}.txt", masks.len() - i));
            parts[i % replicas].insert_file_counted(id, doc_terms(mask));
        }
        let raw = groups
            .iter()
            .map(|(required, excluded)| {
                let required = required.iter().map(|&(word, prefix)| {
                    if prefix { format!("{}*", &VOCAB[word][..2]) } else { VOCAB[word].to_owned() }
                });
                let excluded = excluded.iter().map(|&word| format!("NOT {}", VOCAB[word]));
                required.chain(excluded).collect::<Vec<_>>().join(" ")
            })
            .collect::<Vec<_>>()
            .join(" OR ");
        let query = Query::parse(&raw).unwrap();
        let multi = Searcher::new(&parts, &docs);
        let full = multi.search(&query);
        let limited = multi.search_limited(&query, k);
        prop_assert_eq!(limited.hits(), &full.hits()[..k.min(full.len())], "{:?} k={}", raw, k);
        prop_assert!(limited.heap_bytes() <= k * std::mem::size_of::<dsearch_query::Hit>());
        // Neither joining the replicas nor a thread per replica changes it.
        let joined = dsearch_index::join_all(parts.clone());
        let single = Searcher::new([&joined], &docs);
        prop_assert_eq!(&single.search_limited(&query, k), &limited);
        prop_assert_eq!(&single.search(&query), &full);
        let parallel = Searcher::new(&parts, &docs).with_parallel_lookup(true);
        prop_assert_eq!(parallel.search_limited(&query, k), limited);
        prop_assert_eq!(parallel.search(&query), full);
    }

    /// Scoring is per shard, so evaluating a partitioned snapshot in one
    /// call equals evaluating each shard alone and merging by rank — the
    /// invariant that lets scores survive scatter-gather routing.
    #[test]
    fn multi_shard_evaluation_equals_per_shard_merge(
        masks in proptest::collection::vec(1u8..32, 1..40),
        shard_count in 1usize..4,
        qmask in 1u8..32,
        k in 1usize..12,
    ) {
        let (shards, docs) = seal(&masks, shard_count);
        let raw = term_subset(qmask).join(" OR ");
        let query = Query::parse(&raw).unwrap();
        let (combined, _) = search_topk(&shards, &docs, &query, k);
        let mut merged: Vec<(u32, String, usize)> = Vec::new();
        for s in 0..shard_count {
            let (part, _) =
                search_topk(&shards[s..=s], &docs, &query, usize::MAX);
            merged.extend(keys(&part));
        }
        merged.sort_by(|a, b| {
            f32::from_bits(b.0)
                .total_cmp(&f32::from_bits(a.0))
                .then_with(|| b.2.cmp(&a.2))
                .then_with(|| a.1.cmp(&b.1))
        });
        merged.truncate(k);
        prop_assert_eq!(
            keys(&combined),
            merged,
            "query {:?} over {} shard(s)",
            raw,
            shard_count
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Disjunctions over block-scale corpora: lists of many blocks, id runs
    /// jumping past the window width, and the densest list — the first to
    /// turn non-essential — running out mid-corpus, so non-essential groups
    /// run out inside windows; a small `k` makes θ rise inside them.  The
    /// pruned answer is the exhaustive one cut at `k`, to the bit, and both
    /// score every hit as the frequency-and-length oracle does.
    #[test]
    fn block_scale_pruned_topk_equals_exhaustive(
        draws in proptest::collection::vec(any::<u64>(), 300..3000),
        dense_percent in 0usize..=100,
        jumps in proptest::collection::vec((0usize..3000, 4097u32..12_000), 0..3),
        qmask in 1u8..128,
        k in 1usize..30,
    ) {
        let (shards, docs, _, bm25) = block_corpus(&draws, dense_percent, &jumps, 1);
        let words: Vec<&str> = block::BLOCK_VOCAB
            .iter()
            .enumerate()
            .filter(|(i, _)| qmask & (1 << i) != 0)
            .map(|(_, (word, _))| *word)
            .collect();
        let raw = words.join(" OR ");
        let query = Query::parse(&raw).unwrap();
        let (pruned, stats) = search_topk(&shards, &docs, &query, k);
        let (full, full_stats) = search_topk(&shards, &docs, &query, usize::MAX);
        prop_assert_eq!(full_stats.blocks_skipped, 0);
        prop_assert!(stats.rounds <= full_stats.rounds, "{:?} {:?}", stats, full_stats);
        let mut expected = keys(&full);
        expected.truncate(k);
        prop_assert_eq!(keys(&pruned), expected, "query {:?} k={}", raw, k);
        let query = &query;
        for hit in full.hits() {
            let (score, held) = bm25.score(hit.file_id, query);
            prop_assert_eq!((hit.score.to_bits(), hit.matched_terms), (score.to_bits(), held));
        }
    }
}
