//! The one evaluator against a deliberately naive oracle.
//!
//! For random corpora, random mixes of AND / OR / NOT / prefix terms, one to
//! three shards, any `k` and both scorers, [`evaluate`] must find exactly the
//! documents the oracle finds by checking every document against the query:
//! same ids, same `matched_terms`, same order; a bounded `k` is a prefix of
//! the unbounded answer down to the score bits; and an evaluation that was
//! cancelled says so and returns nothing it would not have returned anyway.
//!
//! The same holds at block scale — hundreds to thousands of documents, so
//! lists span many blocks and the evaluator's windows open and close — where
//! BM25 is also held, score bit for score bit, against an oracle that scores
//! each document from its frequencies and length alone.

use std::cell::Cell;

use proptest::prelude::*;

use dsearch_index::{DocTable, FileId, InMemoryIndex, SealedShard};
use dsearch_query::{evaluate, scorable, Query, Scorer, SearchResults};
use dsearch_text::Term;

#[path = "support/oracle.rs"]
mod oracle;
use oracle::Oracle;

#[path = "support/block.rs"]
mod block;
use block::block_corpus;

/// Words sharing two-letter prefixes, so `al*` and `be*` expand to several
/// terms and overlap with exact ones.
const VOCAB: &[&str] = &["alpha", "alps", "beta", "bet", "gamma", "delta", "omega"];

type GroupSpec = (Vec<(usize, bool)>, Vec<usize>);

fn query_text(groups: &[GroupSpec]) -> String {
    let group = |(required, excluded): &GroupSpec| {
        let required = required.iter().map(|&(word, prefix)| {
            if prefix {
                format!("{}*", &VOCAB[word][..2])
            } else {
                VOCAB[word].to_owned()
            }
        });
        let excluded = excluded.iter().map(|&word| format!("NOT {}", VOCAB[word]));
        required.chain(excluded).collect::<Vec<_>>().join(" ")
    };
    groups.iter().map(group).collect::<Vec<_>>().join(" OR ")
}

/// Round-robin shards of one doc table, and the oracle over the same
/// documents.  Paths descend while ids ascend, so the path tie-break is not
/// the order matches arrive in.
fn corpus(masks: &[u8], shards: usize) -> (Vec<SealedShard>, DocTable, Oracle) {
    let mut docs = DocTable::new();
    let mut oracle = Oracle::default();
    let mut parts: Vec<InMemoryIndex> = (0..shards).map(|_| InMemoryIndex::new()).collect();
    for (i, &mask) in masks.iter().enumerate() {
        let path = format!("doc{:03}.txt", masks.len() - i);
        let id = docs.insert(path.as_str());
        let words = VOCAB.iter().enumerate().filter(|(w, _)| mask & (1 << w) != 0);
        let counted: Vec<(Term, u32)> = words
            .map(|(w, word)| (Term::from(*word), 1 + u32::from(mask.wrapping_mul(w as u8 + 3)) % 5))
            .collect();
        oracle.add(id, &path, counted.iter().map(|(term, _)| term.as_str()));
        parts[i % shards].insert_file_counted(id, counted);
    }
    (parts.iter().map(SealedShard::from_index).collect(), docs, oracle)
}

/// The observable answer: id, `matched_terms`, exact score bits.
fn keys(results: &SearchResults) -> Vec<(FileId, usize, u32)> {
    results.hits().iter().map(|h| (h.file_id, h.matched_terms, h.score.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn evaluator_agrees_with_the_oracle(
        masks in proptest::collection::vec(1u8..128, 1..70),
        shard_count in 1usize..4,
        groups in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..7, any::<bool>()), 1..4),
                proptest::collection::vec(0usize..7, 0..3),
            ),
            1..4,
        ),
        k in 0usize..24,
        cancel_after in 0usize..6,
    ) {
        let (shards, docs, oracle) = corpus(&masks, shard_count);
        let raw = query_text(&groups);
        let query = Query::parse(&raw).unwrap();
        let expected = oracle.search(&query);
        let run = |scorer, k| evaluate(&shards, &docs, &query, scorer, k, &|| false);

        // The constant scorer: the oracle's documents in the oracle's order.
        let (constant, stats) = run(Scorer::Constant, usize::MAX);
        prop_assert!(!stats.cancelled);
        let want: Vec<_> = expected.iter().map(|e| (e.id, e.best_group, 0f32.to_bits())).collect();
        prop_assert_eq!(keys(&constant), want, "constant scorer, {:?}", raw);
        let paths: Vec<&str> = expected.iter().map(|e| e.path.as_str()).collect();
        prop_assert_eq!(constant.paths(), paths, "constant scorer, {:?}", raw);

        // BM25: the same documents, each with the query terms it holds, in
        // rank order; what cannot be scored falls to the constant scorer.
        let (ranked, _) = run(Scorer::Bm25, usize::MAX);
        if scorable(&query) {
            let mut got: Vec<_> = ranked.hits().iter().map(|h| (h.file_id, h.matched_terms)).collect();
            got.sort();
            let mut want: Vec<_> = expected.iter().map(|e| (e.id, e.terms_present)).collect();
            want.sort();
            prop_assert_eq!(got, want, "bm25, {:?}", raw);
            for pair in ranked.hits().windows(2) {
                let order = pair[1].score.total_cmp(&pair[0].score)
                    .then_with(|| pair[1].matched_terms.cmp(&pair[0].matched_terms))
                    .then_with(|| pair[0].path.cmp(&pair[1].path));
                prop_assert_eq!(order, std::cmp::Ordering::Less, "bm25 order, {:?}", raw);
            }
        } else {
            prop_assert_eq!(&ranked, &constant, "unscorable {:?}", raw);
        }

        // A bounded k only truncates, to the bit.
        for (scorer, full) in [(Scorer::Constant, &constant), (Scorer::Bm25, &ranked)] {
            let (bounded, _) = run(scorer, k);
            let mut want = keys(full);
            want.truncate(k);
            prop_assert_eq!(keys(&bounded), want, "{:?} k={} {:?}", scorer, k, raw);
        }

        // Cancellation is reported exactly when it happened, and a cancelled
        // answer holds nothing the full one does not.
        let polls = Cell::new(0usize);
        let cancel = || {
            polls.set(polls.get() + 1);
            polls.get() > cancel_after
        };
        let (partial, stats) = evaluate(&shards, &docs, &query, Scorer::Constant, usize::MAX, &cancel);
        prop_assert_eq!(stats.cancelled, polls.get() > cancel_after);
        if stats.cancelled {
            let full = keys(&constant);
            prop_assert!(keys(&partial).iter().all(|hit| full.contains(hit)), "{:?}", raw);
        } else {
            prop_assert_eq!(&partial, &constant);
        }
    }
}

/// A group strategy over [`VOCAB`]: required words (some as prefixes) and
/// excluded ones.
fn groups() -> impl Strategy<Value = Vec<GroupSpec>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0usize..7, any::<bool>()), 1..4),
            proptest::collection::vec(0usize..7, 0..3),
        ),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Block-scale corpora — lists of many blocks, id runs that jump past the
    /// window width, the densest list running out mid-corpus — against both
    /// oracles, for a disjunction, a conjunction and a random shape: the
    /// constant scorer finds the boolean oracle's documents in its order;
    /// BM25 finds the same documents, each scored to the bit of
    /// `Bm25Oracle`, ranked as those scores say; a bounded `k` — θ rising
    /// mid-window — only truncates; and a cancellation, polled mid-window,
    /// is reported exactly when it happened and returns only what the full
    /// answer holds, scored alike.
    #[test]
    fn block_scale_evaluation_agrees_with_both_oracles(
        draws in proptest::collection::vec(any::<u64>(), 300..3000),
        dense_percent in 0usize..=100,
        jumps in proptest::collection::vec((0usize..3000, 4097u32..12_000), 0..3),
        shard_count in 1usize..3,
        any_of in proptest::collection::vec(0usize..7, 2..5),
        all_of in proptest::collection::vec(0usize..7, 2..4),
        shape in groups(),
        k in 1usize..40,
        cancel_after in 1usize..30,
    ) {
        let (shards, docs, oracle, bm25) = block_corpus(&draws, dense_percent, &jumps, shard_count);
        let words = |picks: &[usize], joiner: &str| {
            picks.iter().map(|&w| VOCAB[w]).collect::<Vec<_>>().join(joiner)
        };
        for raw in [words(&any_of, " OR "), words(&all_of, " "), query_text(&shape)] {
            let query = Query::parse(&raw).unwrap();
            let expected = oracle.search(&query);
            let run = |scorer, k| evaluate(&shards, &docs, &query, scorer, k, &|| false);

            let (constant, _) = run(Scorer::Constant, usize::MAX);
            let want: Vec<_> = expected.iter().map(|e| (e.id, e.best_group, 0f32.to_bits())).collect();
            prop_assert_eq!(keys(&constant), want, "constant scorer, {:?}", raw);

            let (ranked, _) = run(Scorer::Bm25, usize::MAX);
            if scorable(&query) {
                let mut want: Vec<_> = expected
                    .iter()
                    .map(|e| {
                        let (score, held) = bm25.score(e.id, &query);
                        (score, held, e.path.as_str(), e.id)
                    })
                    .collect();
                want.sort_by(|a, b| {
                    b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(b.2)).then(a.3.cmp(&b.3))
                });
                let want: Vec<_> = want.iter().map(|w| (w.3, w.1, w.0.to_bits())).collect();
                prop_assert_eq!(keys(&ranked), want, "bm25, {:?}", raw);
            } else {
                prop_assert_eq!(&ranked, &constant, "unscorable {:?}", raw);
            }

            for (scorer, full) in [(Scorer::Constant, &constant), (Scorer::Bm25, &ranked)] {
                let (bounded, _) = run(scorer, k);
                let mut want = keys(full);
                want.truncate(k);
                prop_assert_eq!(keys(&bounded), want, "{:?} k={} {:?}", scorer, k, raw);

                let polls = Cell::new(0usize);
                let cancel = || {
                    polls.set(polls.get() + 1);
                    polls.get() > cancel_after
                };
                let (partial, stats) = evaluate(&shards, &docs, &query, scorer, k, &cancel);
                prop_assert_eq!(stats.cancelled, polls.get() > cancel_after);
                let full = keys(full);
                prop_assert!(keys(&partial).iter().all(|hit| full.contains(hit)), "{:?}", raw);
            }
        }
    }
}
