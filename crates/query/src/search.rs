//! Query evaluation over single and replicated indices.
//!
//! [`SingleIndexSearcher`] serves the common case (Implementations 1 and 2
//! end with one index).  [`MultiIndexSearcher`] serves Implementation 3: the
//! replicas are never joined, so a query is evaluated against every replica
//! and the partial results are combined — optionally with one thread per
//! replica, which is the parallel-query idea the paper sketches as future
//! work.
//!
//! # The cursor evaluation path
//!
//! [`SearchBackend::postings`] returns a [`Postings`] — borrowed straight
//! out of the index whenever possible (a raw slice *or* a block-compressed
//! list of a sealed shard), materialised only when several shards or
//! prefix-matched terms had to be merged.  The default
//! [`SearchBackend::search`] evaluates each `AND` group over
//! [`PostingsCursor`]s:
//!
//! 1. every required term's postings are fetched (a group with any unknown
//!    term is dead and skipped outright);
//! 2. the lists are ordered by ascending length, so the intermediate result
//!    can never exceed the rarest term's list (selectivity ordering);
//! 3. intersections run through [`intersect_cursors_into`]: two uncompressed
//!    lists take the tuned slice path (linear merge or gallop), while any
//!    compressed operand leapfrogs by `seek`, skipping whole blocks of the
//!    longer list via its skip table without decoding them;
//! 4. `NOT` terms are subtracted the same way via
//!    [`difference_cursors_into`];
//! 5. everything writes into one pair of scratch buffers reused across every
//!    operator of the query.
//!
//! A single-term group never copies an uncompressed posting list at all (the
//! hits are read directly off the borrowed slice); a compressed single-term
//! result is decoded exactly once, straight into the scratch buffer.

use dsearch_index::{
    difference_cursors_into, intersect_cursors_into, DocTable, FileId, InMemoryIndex, IndexSet,
    PostingCursor, Postings, PostingsCursor, SliceCursor,
};
use dsearch_text::Term;

use crate::query::{Query, QueryTerm};
use crate::results::SearchResults;
use crate::topk::{Scored, TopK};

/// When the rarest required list of an `AND` group has at most this many ids,
/// skip the generic leapfrog/scratch-swap machinery: copy the tiny list once
/// and probe each remaining list with a single forward-only `seek` per id.
/// The generic path costs two cursor setups plus a buffer swap per operator,
/// which dominates sub-microsecond queries (the PR 4 `1 ∩ 20k` regression).
const TINY_AND: usize = 4;

/// Anything queries can be evaluated against.
pub trait SearchBackend {
    /// The posting list for one term (empty when the term is unknown).
    ///
    /// Implementations should borrow from their underlying index whenever
    /// they can — [`Postings::Owned`] is for lookups that had to merge.
    fn postings(&self, term: &Term) -> Postings<'_>;

    /// The union of the posting lists of every indexed term starting with
    /// `prefix` (used for `word*` queries).
    fn prefix_postings(&self, prefix: &str) -> Postings<'_>;

    /// The path registered for a file id.
    fn path_of(&self, id: FileId) -> Option<&str>;

    /// Cooperative cancellation checkpoint, consulted by the default
    /// evaluator between query groups and between posting-cursor operator
    /// passes.  A backend with a deadline returns `true` to stop evaluation
    /// mid-flight (a huge `OR` over cold postings must not run to completion
    /// after its budget is gone); the partial result it yields is the
    /// caller's to discard.  The default never cancels.
    fn should_cancel(&self) -> bool {
        false
    }

    /// Evaluates a query, producing every match in rank order.
    fn search(&self, query: &Query) -> SearchResults {
        self.search_limited(query, usize::MAX)
    }

    /// Evaluates a query, keeping only the best `k` matches: exactly the
    /// first `k` hits of [`SearchBackend::search`].  Matching is unchanged;
    /// when it finds more than `k` documents the hits are selected with a
    /// `k`-bounded heap over borrowed paths, so a query matching a million
    /// documents compares paths a million times but owns only `k` of them.
    /// When `k` covers every match there is nothing to select and the hits
    /// are ranked once: ids (and so, mostly, paths) arrive ascending, the
    /// worst order for a heap that keeps everything — sending the unbounded
    /// [`SearchBackend::search`] through it measured ×2.6 on the benchmark's
    /// prefix queries (63 → 165 µs) and ×2.5 on its `AND NOT` ones.
    fn search_limited(&self, query: &Query, k: usize) -> SearchResults {
        let matched = self.matched_ids(query);
        let keep_all = k >= matched.len();
        let candidates = matched.into_iter().map(|(id, matched)| Scored {
            score: 0.0,
            matched,
            path: self.path_of(id).unwrap_or("<unknown>"),
            id,
        });
        SearchResults::new(if keep_all {
            candidates.map(Scored::into_hit).collect()
        } else {
            let mut top = TopK::new(k);
            candidates.for_each(|candidate| top.offer(candidate));
            top.into_hits()
        })
    }

    /// Boolean query evaluation: the deduplicated matching file ids, sorted
    /// ascending, each with the matched-term count of its best `OR` group.
    /// This is the engine under [`SearchBackend::search`]; the BM25 scorer
    /// reuses it to enumerate candidates without materialising paths.
    fn matched_ids(&self, query: &Query) -> Vec<(FileId, usize)> {
        let mut matched: Vec<(FileId, usize)> = Vec::new();
        // One pair of scratch buffers, reused by every AND/NOT operator of
        // every group; `acc` holds the running result once an operator ran.
        let mut acc: Vec<FileId> = Vec::new();
        let mut next: Vec<FileId> = Vec::new();
        'groups: for group in query.groups() {
            if self.should_cancel() {
                break 'groups;
            }
            // Fetch all required lists up front; any empty list kills the
            // whole conjunction before a single merge step runs.
            let mut lists: Vec<Postings<'_>> = Vec::with_capacity(group.required().len());
            let mut dead = false;
            for term in group.required() {
                let postings = match term {
                    QueryTerm::Exact(term) => self.postings(term),
                    QueryTerm::Prefix(prefix) => self.prefix_postings(prefix),
                };
                if postings.is_empty() {
                    dead = true;
                    break;
                }
                lists.push(postings);
            }
            if dead || lists.is_empty() {
                continue;
            }
            // Selectivity ordering: intersect smallest-first so every
            // intermediate result is bounded by the rarest term's list.
            lists.sort_by_key(Postings::len);

            // `in_scratch` tracks whether the running result lives in `acc`
            // or is still the (borrowed, undecoded) smallest input list.
            let mut in_scratch = false;
            if lists.len() >= 2 && lists[0].len() <= TINY_AND {
                // Tiny-slice fast path: the rarest list bounds the result to
                // a handful of ids, so probe each other list directly —
                // `acc` ids ascend, so one cursor per list seeks forward.
                lists[0].copy_into(&mut acc);
                in_scratch = true;
                for postings in lists.iter().skip(1) {
                    if acc.is_empty() {
                        break;
                    }
                    let mut cursor = postings.cursor();
                    acc.retain(|&id| cursor.seek(id) == Some(id));
                }
            } else {
                for postings in lists.iter().skip(1) {
                    // Each pass is a full posting-cursor sweep: check the
                    // budget between them so a long conjunction stops as
                    // soon as it is dead work.
                    if self.should_cancel() {
                        break 'groups;
                    }
                    let current = if in_scratch {
                        PostingsCursor::Slice(SliceCursor::new(&acc))
                    } else {
                        lists[0].cursor()
                    };
                    intersect_cursors_into(current, postings.cursor(), &mut next);
                    std::mem::swap(&mut acc, &mut next);
                    in_scratch = true;
                    if acc.is_empty() {
                        break;
                    }
                }
            }
            // NOT terms: subtract the postings of every excluded term.
            for term in group.excluded() {
                if in_scratch && acc.is_empty() {
                    break;
                }
                if self.should_cancel() {
                    break 'groups;
                }
                let excluded = self.postings(term);
                if excluded.is_empty() {
                    continue;
                }
                let current = if in_scratch {
                    PostingsCursor::Slice(SliceCursor::new(&acc))
                } else {
                    lists[0].cursor()
                };
                difference_cursors_into(current, excluded.cursor(), &mut next);
                std::mem::swap(&mut acc, &mut next);
                in_scratch = true;
            }
            if !in_scratch {
                // Single required term, no operator ran.  A borrowed slice is
                // read in place; a compressed list decodes exactly once into
                // the reused scratch buffer.
                match lists[0].try_view() {
                    Some(view) => {
                        matched.extend(view.iter().map(|id| (id, group.len())));
                        continue;
                    }
                    None => lists[0].copy_into(&mut acc),
                }
            }
            matched.extend(acc.iter().map(|&id| (id, group.len())));
        }
        // A document matching several OR groups keeps its best (highest
        // matched-term) group.
        matched.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.cmp(&a.1)));
        matched.dedup_by_key(|(id, _)| *id);
        matched
    }
}

/// Searches one joined index.
#[derive(Debug, Clone, Copy)]
pub struct SingleIndexSearcher<'a> {
    index: &'a InMemoryIndex,
    docs: &'a DocTable,
}

impl<'a> SingleIndexSearcher<'a> {
    /// Creates a searcher over `index` with paths resolved through `docs`.
    #[must_use]
    pub fn new(index: &'a InMemoryIndex, docs: &'a DocTable) -> Self {
        SingleIndexSearcher { index, docs }
    }
}

impl SearchBackend for SingleIndexSearcher<'_> {
    fn postings(&self, term: &Term) -> Postings<'_> {
        // The exact-term fast path: a borrow, never a clone.
        match self.index.postings(term) {
            Some(list) => Postings::Borrowed(list),
            None => Postings::empty(),
        }
    }

    fn prefix_postings(&self, prefix: &str) -> Postings<'_> {
        Postings::union_of(self.index.prefix_lists(prefix))
    }

    fn path_of(&self, id: FileId) -> Option<&str> {
        self.docs.path(id)
    }
}

/// Searches the un-joined replica set of Implementation 3.
#[derive(Debug, Clone, Copy)]
pub struct MultiIndexSearcher<'a> {
    set: &'a IndexSet,
    docs: &'a DocTable,
    parallel: bool,
}

impl<'a> MultiIndexSearcher<'a> {
    /// Creates a sequential multi-index searcher.
    #[must_use]
    pub fn new(set: &'a IndexSet, docs: &'a DocTable) -> Self {
        MultiIndexSearcher { set, docs, parallel: false }
    }

    /// Makes term lookups fan out with one thread per replica.
    ///
    /// Worth it only for large replica counts or long queries; provided to
    /// reproduce the paper's "search can work with multiple indices in
    /// parallel" claim.  Applies to exact-term *and* prefix lookups.
    #[must_use]
    pub fn with_parallel_lookup(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Number of replicas consulted per lookup.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.set.replica_count()
    }
}

impl SearchBackend for MultiIndexSearcher<'_> {
    fn postings(&self, term: &Term) -> Postings<'_> {
        // A term living in at most one replica stays borrowed; only genuine
        // cross-replica overlap pays for a k-way merge.
        self.set.term_postings(term, self.parallel)
    }

    fn prefix_postings(&self, prefix: &str) -> Postings<'_> {
        self.set.prefix_term_postings(prefix, self.parallel)
    }

    fn path_of(&self, id: FileId) -> Option<&str> {
        self.docs.path(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds one joined index and an equivalent 3-replica set over the same
    /// tiny document collection.
    fn fixture() -> (InMemoryIndex, IndexSet, DocTable) {
        let docs_content: &[(&str, &[&str])] = &[
            ("a.txt", &["rust", "parallel", "index"]),
            ("b.txt", &["rust", "search"]),
            ("c.txt", &["java", "search", "index"]),
            ("d.txt", &["rust", "java"]),
            ("e.txt", &["parallel", "search", "rust"]),
        ];
        let mut table = DocTable::new();
        let mut joined = InMemoryIndex::new();
        let mut replicas: Vec<InMemoryIndex> = (0..3).map(|_| InMemoryIndex::new()).collect();
        for (i, (path, words)) in docs_content.iter().enumerate() {
            let id = table.insert(*path);
            let terms: Vec<Term> = words.iter().map(|w| Term::from(*w)).collect();
            joined.insert_file(id, terms.clone());
            replicas[i % 3].insert_file(id, terms);
        }
        (joined, IndexSet::new(replicas), table)
    }

    #[test]
    fn single_term_query() {
        let (index, _, docs) = fixture();
        let searcher = SingleIndexSearcher::new(&index, &docs);
        let results = searcher.search(&Query::parse("rust").unwrap());
        assert_eq!(results.len(), 4);
        assert!(results.paths().contains(&"a.txt"));
        assert!(!results.paths().contains(&"c.txt"));
    }

    #[test]
    fn search_limited_keeps_the_best_k_in_rank_order() {
        let (index, set, docs) = fixture();
        let single = SingleIndexSearcher::new(&index, &docs);
        let multi = MultiIndexSearcher::new(&set, &docs);
        // Two documents match both terms of the first group and rank first;
        // within a rank, paths ascend.
        let query = Query::parse("rust search OR java").unwrap();
        let full = single.search(&query);
        assert_eq!(full.paths(), ["b.txt", "e.txt", "c.txt", "d.txt"]);
        for k in [0, 1, 3, 4, 9] {
            let limited = single.search_limited(&query, k);
            assert_eq!(limited.hits(), &full.hits()[..k.min(4)], "k={k}");
            assert_eq!(multi.search_limited(&query, k), limited, "k={k}");
            assert!(limited.heap_bytes() <= k * std::mem::size_of::<crate::Hit>(), "k={k}");
        }
    }

    #[test]
    fn exact_term_lookup_is_borrowed() {
        let (index, set, docs) = fixture();
        let single = SingleIndexSearcher::new(&index, &docs);
        // Known term against one index: a borrow straight out of the map.
        assert!(matches!(single.postings(&Term::from("rust")), Postings::Borrowed(_)));
        // Unknown term: the static empty list, still no allocation.
        let missing = single.postings(&Term::from("cobol"));
        assert!(matches!(missing, Postings::Borrowed(list) if list.is_empty()));
        // A term living in exactly one replica stays borrowed even through
        // the multi-index searcher.
        let multi = MultiIndexSearcher::new(&set, &docs);
        assert!(matches!(
            multi.postings(&Term::from("java")),
            Postings::Borrowed(_) | Postings::Owned(_)
        ));
    }

    #[test]
    fn and_query_intersects() {
        let (index, _, docs) = fixture();
        let searcher = SingleIndexSearcher::new(&index, &docs);
        let results = searcher.search(&Query::parse("rust search").unwrap());
        assert_eq!(results.paths(), vec!["b.txt", "e.txt"]);
    }

    #[test]
    fn or_query_unions_and_ranks_by_matched_terms() {
        let (index, _, docs) = fixture();
        let searcher = SingleIndexSearcher::new(&index, &docs);
        let results = searcher.search(&Query::parse("rust parallel OR java").unwrap());
        // a.txt and e.txt match both terms of the first group (2 matched
        // terms); c.txt and d.txt match "java" (1 matched term).
        assert_eq!(results.len(), 4);
        assert_eq!(results.hits()[0].matched_terms, 2);
        assert!(results.paths()[..2].contains(&"a.txt"));
        assert!(results.paths()[..2].contains(&"e.txt"));
    }

    #[test]
    fn unknown_terms_produce_no_hits() {
        let (index, _, docs) = fixture();
        let searcher = SingleIndexSearcher::new(&index, &docs);
        let results = searcher.search(&Query::parse("nonexistent").unwrap());
        assert!(results.is_empty());
        let results = searcher.search(&Query::parse("rust nonexistent").unwrap());
        assert!(results.is_empty());
    }

    #[test]
    fn multi_index_matches_single_index() {
        let (index, set, docs) = fixture();
        let single = SingleIndexSearcher::new(&index, &docs);
        let multi = MultiIndexSearcher::new(&set, &docs);
        let multi_par = MultiIndexSearcher::new(&set, &docs).with_parallel_lookup(true);
        assert_eq!(multi.replica_count(), 3);

        for raw in [
            "rust",
            "rust search",
            "index OR java",
            "parallel rust OR java search",
            "rust java index OR search",
        ] {
            let q = Query::parse(raw).unwrap();
            let expected = single.search(&q);
            assert_eq!(multi.search(&q), expected, "sequential multi, query {raw:?}");
            assert_eq!(multi_par.search(&q), expected, "parallel multi, query {raw:?}");
        }
    }

    #[test]
    fn not_terms_exclude_documents() {
        let (index, set, docs) = fixture();
        let searcher = SingleIndexSearcher::new(&index, &docs);
        // All rust documents except the ones also mentioning java.
        let results = searcher.search(&Query::parse("rust NOT java").unwrap());
        assert_eq!(results.paths(), vec!["a.txt", "b.txt", "e.txt"]);
        // Dash syntax and multi-replica backend agree.
        let multi = MultiIndexSearcher::new(&set, &docs);
        assert_eq!(multi.search(&Query::parse("rust -java").unwrap()), results);
        // Excluding a term that never occurs changes nothing.
        let unchanged = searcher.search(&Query::parse("rust NOT cobol").unwrap());
        assert_eq!(unchanged.len(), 4);
        // Subtracting down to nothing short-circuits later exclusions.
        let none = searcher.search(&Query::parse("java NOT java NOT rust").unwrap());
        assert!(none.is_empty());
    }

    #[test]
    fn prefix_queries_expand_over_index_terms() {
        let (index, set, docs) = fixture();
        let searcher = SingleIndexSearcher::new(&index, &docs);
        // "ja*" matches "java"; "par*" matches "parallel".
        let results = searcher.search(&Query::parse("ja*").unwrap());
        assert_eq!(results.paths(), vec!["c.txt", "d.txt"]);
        let results = searcher.search(&Query::parse("par* search").unwrap());
        assert_eq!(results.paths(), vec!["e.txt"]);
        // Prefix matching nothing yields no hits.
        assert!(searcher.search(&Query::parse("zz*").unwrap()).is_empty());
        // Multi-index prefix expansion covers every replica, sequentially
        // and with parallel lookup.
        let multi = MultiIndexSearcher::new(&set, &docs);
        let multi_par = MultiIndexSearcher::new(&set, &docs).with_parallel_lookup(true);
        let expected = searcher.search(&Query::parse("ja*").unwrap());
        assert_eq!(multi.search(&Query::parse("ja*").unwrap()), expected);
        assert_eq!(multi_par.search(&Query::parse("ja*").unwrap()), expected);
    }

    #[test]
    fn sealed_dictionary_does_not_change_results() {
        let (mut index, set, docs) = fixture();
        let queries =
            ["rust", "rust search", "ja* OR par*", "inde*", "rust NOT java", "s* r* OR p*"];
        let unsealed: Vec<SearchResults> = {
            let searcher = SingleIndexSearcher::new(&index, &docs);
            queries.iter().map(|q| searcher.search(&Query::parse(q).unwrap())).collect()
        };
        index.build_dictionary();
        let searcher = SingleIndexSearcher::new(&index, &docs);
        for (raw, expected) in queries.iter().zip(unsealed) {
            assert_eq!(searcher.search(&Query::parse(raw).unwrap()), expected, "query {raw:?}");
        }
        // Multi-index searchers agree too (replicas unsealed).
        let multi = MultiIndexSearcher::new(&set, &docs);
        for raw in queries {
            assert_eq!(
                multi.search(&Query::parse(raw).unwrap()),
                searcher.search(&Query::parse(raw).unwrap()),
                "query {raw:?}"
            );
        }
    }

    #[test]
    fn duplicate_document_across_or_groups_is_reported_once() {
        let (index, _, docs) = fixture();
        let searcher = SingleIndexSearcher::new(&index, &docs);
        // b.txt matches both groups.
        let results = searcher.search(&Query::parse("rust OR search").unwrap());
        let b_hits = results.paths().iter().filter(|p| **p == "b.txt").count();
        assert_eq!(b_hits, 1);
        assert_eq!(results.len(), 5);
    }

    #[test]
    fn tiny_and_fast_path_matches_generic_intersection() {
        // One rare term (1–3 postings) against mid/common terms: the rare
        // side takes the TINY_AND seek path, and widening it past TINY_AND
        // exercises the generic leapfrog on the same corpus for comparison.
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for d in 0..500u32 {
            let id = docs.insert(format!("doc{d:04}.txt"));
            let mut words = vec![Term::from("common")];
            if d % 2 == 0 {
                words.push(Term::from("even"));
            }
            if d % 181 == 0 {
                words.push(Term::from("rare"));
            }
            if d % 31 == 0 {
                words.push(Term::from("mid"));
            }
            index.insert_file(id, words);
        }
        let searcher = SingleIndexSearcher::new(&index, &docs);
        // rare: docs 0, 181, 362 → 3 ids ≤ TINY_AND; rare∩even = 0, 362.
        let results = searcher.search(&Query::parse("rare even common").unwrap());
        assert_eq!(results.paths(), vec!["doc0000.txt", "doc0362.txt"]);
        // A NOT after the tiny path still subtracts from the scratch result.
        let results = searcher.search(&Query::parse("rare even NOT mid").unwrap());
        assert_eq!(results.paths(), vec!["doc0362.txt"]);
        // mid (17 ids) ∩ even goes through the generic path; cross-check a
        // shared document against the tiny-path result above.
        let generic = searcher.search(&Query::parse("mid even common").unwrap());
        assert!(generic.paths().contains(&"doc0000.txt"));
        assert_eq!(generic.len(), 9, "mid ∩ even: d % 62 == 0");
    }

    #[test]
    fn cancellation_stops_evaluation_between_groups() {
        use std::cell::Cell;
        struct CancellingSearcher<'a> {
            inner: SingleIndexSearcher<'a>,
            budget: Cell<usize>,
        }
        impl SearchBackend for CancellingSearcher<'_> {
            fn postings(&self, term: &Term) -> Postings<'_> {
                self.inner.postings(term)
            }
            fn prefix_postings(&self, prefix: &str) -> Postings<'_> {
                self.inner.prefix_postings(prefix)
            }
            fn path_of(&self, id: FileId) -> Option<&str> {
                self.inner.path_of(id)
            }
            fn should_cancel(&self) -> bool {
                let left = self.budget.get();
                if left == 0 {
                    return true;
                }
                self.budget.set(left - 1);
                false
            }
        }
        let (index, _, docs) = fixture();
        let query = Query::parse("rust OR java").unwrap();
        // Budget 0: cancelled before the first group, nothing evaluates.
        let searcher = CancellingSearcher {
            inner: SingleIndexSearcher::new(&index, &docs),
            budget: Cell::new(0),
        };
        assert!(searcher.search(&query).is_empty());
        // Budget 1: the first OR group evaluates, the second is cut off —
        // the caller sees a strict subset it knows to discard.
        let searcher = CancellingSearcher {
            inner: SingleIndexSearcher::new(&index, &docs),
            budget: Cell::new(1),
        };
        let partial = searcher.search(&query);
        assert_eq!(partial.len(), 4, "only the rust group ran");
        // A backend that never cancels is unaffected.
        assert_eq!(SingleIndexSearcher::new(&index, &docs).search(&query).len(), 5);
    }

    #[test]
    fn path_of_unknown_id_is_placeholder() {
        let (index, _, _) = fixture();
        let empty_docs = DocTable::new();
        let searcher = SingleIndexSearcher::new(&index, &empty_docs);
        let results = searcher.search(&Query::parse("rust").unwrap());
        assert!(results.hits().iter().all(|h| &*h.path == "<unknown>"));
    }
}
