//! Query evaluation: one document-at-a-time evaluator over sealed shards.
//!
//! [`evaluate`] is the only function in the workspace that answers a query.
//! The serving engine, `IndexSnapshot`, the `dsearch search` command, the
//! examples and the tests all reach it — directly, or through [`Searcher`],
//! which seals in-memory indices first.
//!
//! Per shard the query (an `OR` of `AND` groups) becomes a small cursor tree:
//!
//! * an **`AND` group** leapfrogs over one [`BlockCursor`] per required
//!   term, shortest list first, so the rarest term drives and whole blocks
//!   of the longer lists are skipped through their skip tables undecoded;
//! * a **prefix term** (`word*`) is a node that unions the posting lists of
//!   its dictionary range once, into a buffer the group then walks with a
//!   [`SliceCursor`];
//! * a **`NOT` term** is a cursor that is only ever `seek`ed: a candidate it
//!   lands on is dropped, blocks it never has to look into stay undecoded;
//! * the **`OR` node** takes the groups' matches in document order and
//!   offers each matching document exactly once to the shared `TopK`.
//!
//! What a document is offered *with* is the [`Scorer`]'s business.  The
//! constant scorer gives every match score `0.0` and the length of its best
//! group as `matched_terms`: boolean retrieval is ranked retrieval with
//! nothing to rank by but that count and the path.  BM25 sums, per document,
//! the contributions of every distinct query term it contains, in ascending
//! term order, in `f64`, rounded once to `f32` — whatever was skipped on the
//! way, so a pruned evaluation is bit-identical to an exhaustive one.
//!
//! With BM25 the `OR` node has a threshold θ (the `k`-th best score so far)
//! and one upper bound per group (its terms' list bounds summed, each from
//! the list's sealed bound byte), and the loop is MaxScore (Turtle & Flood,
//! 1995).  The groups are ordered by bound; the longest prefix whose bounds
//! together cannot reach θ is *non-essential*: a document matched by none of
//! the other, *essential*, groups cannot make the heap, so candidates come
//! from the essential groups alone — each the smallest of their next
//! matches.  A non-essential group is only ever `seek`ed to a candidate,
//! highest bound first, and only while the candidate's exact partial score
//! plus the bounds of the non-essential groups not yet looked at can still
//! reach θ.  When θ rises the boundary moves right; once every group is
//! non-essential the shard is done.  A single `AND` group is the one-group
//! case of the same loop.  A group's bounds cover its own terms only, so a
//! query mixing several groups with a multi-term one is scored through
//! separate forward-seeking cursors and never pruned; it, and every query
//! the constant scorer answers, runs the same loop with every group
//! essential.
//!
//! Shards are evaluated one after another into one heap, each scored with
//! its own statistics — exactly how the same documents score when routed
//! across separate shard processes.
//!
//! What one shard's evaluation allocates does not depend on its groups or
//! cursors: every group's cursors live in two shared arenas (a cursor
//! decodes into buffers of its own, inline), and a document's BM25 terms
//! meet in one slot per query term.  A lone essential group — every
//! candidate of a one-group query, most of a sparse `OR` once θ has risen —
//! hands out its next match without the others being looked at.

use std::ops::Range;
use std::time::{Duration, Instant};

use dsearch_index::{
    bm25_bound, bm25_score, BlockCursor, DocTable, FileId, InMemoryIndex, PostingCursor,
    SealedShard, SliceCursor, BLOCK_SIZE, BM25_K1,
};
use dsearch_text::Term;

use crate::query::{Query, QueryGroup, QueryTerm};
use crate::results::{Hit, SearchResults};
use crate::topk::TopK;

/// Comparison slack for the floating-point pruning threshold.  Upper bounds
/// and scores are compared in `f64`; the slack absorbs the `f32` rounding of
/// a score so pruning never drops a document an exhaustive evaluation would
/// keep.
const SLACK: f64 = 1e-5;

/// Candidates between two polls of `should_cancel`.
const CANCEL_STRIDE: u64 = 64;

/// What an evaluation reports besides its hits: the posting blocks it
/// touched, and whether it ran to completion.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PruneStats {
    /// Posting blocks entered (and decoded).
    pub blocks_scored: u64,
    /// Posting blocks never entered: jumped over by a skip-table seek, or
    /// left behind when the shard was done before its lists were.
    pub blocks_skipped: u64,
    /// Time spent resolving dictionary entries, opening posting cursors and
    /// materialising prefix unions — the `postings` trace stage.
    pub lookup: Duration,
    /// `should_cancel` returned `true` at a checkpoint: the hits are whatever
    /// had been found by then, and only good for discarding.
    pub cancelled: bool,
    /// Candidates: documents the essential groups matched, one per round of
    /// the `OR` node's loop.
    pub rounds: u64,
    /// Candidates scored in full (no bound ruled them out on the way) and
    /// offered to the result heap if they reached its threshold.
    pub scored: u64,
    /// Non-essential groups `seek`ed to a candidate.
    pub seeks: u64,
}

impl PruneStats {
    /// Accumulates another evaluation's counters into this one.
    pub fn merge(&mut self, other: PruneStats) {
        self.blocks_scored += other.blocks_scored;
        self.blocks_skipped += other.blocks_skipped;
        self.lookup += other.lookup;
        self.cancelled |= other.cancelled;
        self.rounds += other.rounds;
        self.scored += other.scored;
        self.seeks += other.seeks;
    }

    /// Folds a finished cursor's visit counters in.
    fn retire(&mut self, cursor: &BlockCursor<'_>) {
        let visited = cursor.blocks_visited();
        self.blocks_scored += visited;
        self.blocks_skipped += (cursor.total_blocks() as u64).saturating_sub(visited);
    }
}

/// Whether a query can be BM25-scored at all: at least one group, no prefix
/// terms (a prefix is many terms of wildly different rarity), no exclusions
/// (`NOT` contributes no score).
#[must_use]
pub fn scorable(query: &Query) -> bool {
    !query.groups().is_empty() && !query.has_prefix_terms() && !query.has_exclusions()
}

/// What a matching document is offered to the result heap with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scorer {
    /// BM25 over the query's exact terms; a query that is not [`scorable`]
    /// is evaluated by the constant scorer instead.
    Bm25,
    /// Score `0.0`; `matched_terms` is the length of the best matching
    /// group.  Hits rank by that count, then by path.
    Constant,
}

/// Evaluates `query` against `shards`, returning its `k` best hits in rank
/// order and the block counters.  `should_cancel` is the cooperative
/// deadline checkpoint, polled before each shard and every few dozen
/// candidate documents; once it returns `true` evaluation stops and says so
/// in [`PruneStats::cancelled`].
///
/// A document id served by several shards keeps its best occurrence; no
/// writer of this workspace produces such a store (a file's postings live in
/// exactly one segment), which is also why each shard can be matched on its
/// own.
#[must_use]
pub fn evaluate(
    shards: &[SealedShard],
    docs: &DocTable,
    query: &Query,
    scorer: Scorer,
    k: usize,
    should_cancel: &dyn Fn() -> bool,
) -> (SearchResults, PruneStats) {
    let mut stats = PruneStats::default();
    if k == 0 {
        return (SearchResults::default(), stats);
    }
    let groups = query.groups();
    let terms = query.terms();
    let ranked = scorer == Scorer::Bm25 && scorable(query);
    let plan = Plan {
        query,
        ranked,
        mixed: groups.len() > 1 && groups.iter().any(|group| group.len() > 1),
        one_term: ranked && groups.len() == 1 && terms.len() == 1,
        terms,
    };
    let mut top = TopK::new(k, docs);
    let mut sum = TermSum::new(plan.terms.len());
    for shard in shards {
        stats.cancelled = stats.cancelled || should_cancel();
        if stats.cancelled {
            break;
        }
        if plan.ranked {
            evaluate_shard::<true>(shard, &plan, &mut top, &mut sum, &mut stats, should_cancel);
        } else {
            evaluate_shard::<false>(shard, &plan, &mut top, &mut sum, &mut stats, should_cancel);
        }
    }
    (collect(top.into_hits(), shards.len(), k), stats)
}

/// Ranks the hits of `shard_count` shards, keeping one occurrence per file
/// id and the best `k`.
fn collect(mut hits: Vec<Hit>, shard_count: usize, k: usize) -> SearchResults {
    if shard_count > 1 {
        hits.sort_by(|a, b| a.file_id.cmp(&b.file_id).then_with(|| b.score.total_cmp(&a.score)));
        hits.dedup_by_key(|h| h.file_id);
    }
    let mut results = SearchResults::new(hits);
    results.truncate(k);
    results
}

/// What about a query is the same for every shard.
struct Plan<'q> {
    query: &'q Query,
    /// Distinct exact terms, sorted: a term's index here fixes the order its
    /// contribution is summed in.
    terms: Vec<&'q Term>,
    /// Score with BM25 (the query is scorable and BM25 was asked for).
    ranked: bool,
    /// Several groups, one of them with several terms: a document matched
    /// through one group may contain terms of another.
    mixed: bool,
    /// Ranked, one group of one exact term: a document's score is its one
    /// contribution, with no slots to sum.
    one_term: bool,
}

/// One exact term's posting cursor plus its score bound.
struct TermCursor<'a> {
    /// Index into [`Plan::terms`].
    term: usize,
    idf: f32,
    /// Admissible upper bound on any single posting's score in this list.
    list_bound: f64,
    cursor: BlockCursor<'a>,
}

impl<'a> TermCursor<'a> {
    /// Opens `term`'s list in `shard`; `None` when the shard has no posting
    /// for it.
    fn open(shard: &'a SealedShard, plan: &Plan<'_>, term: &Term) -> Option<Self> {
        let postings = shard.postings(term).filter(|list| !list.is_empty())?;
        let idf = shard.idf(postings.len());
        let list_bound = if postings.bound() > 0 {
            bm25_bound(idf, postings.bound())
        } else if shard.has_scoring() {
            // Scored shard but a list without a bound (no seal writes one):
            // the analytic BM25 ceiling keeps pruning admissible.
            f64::from(idf) * f64::from(1.0 + BM25_K1)
        } else {
            // Unscored shard: tf = 1 and neutral norms everywhere, so every
            // posting scores exactly idf.
            f64::from(idf)
        };
        Some(TermCursor {
            term: plan.terms.binary_search(&term).expect("Query::terms lists every exact term"),
            idf,
            list_bound,
            cursor: postings.cursor(),
        })
    }

    /// This term's share of the score of the document the cursor is on.
    fn contribution(&mut self, norm: f32) -> (usize, f32) {
        (self.term, bm25_score(self.idf, self.cursor.current_tf(), norm))
    }
}

/// The union of the posting lists of every term of `shard` starting with
/// `prefix`.  Each list is decoded once, back to back into one buffer sized
/// for all of them; the run-adaptive sort then merges the runs (a range of
/// many few-posting terms is the common case, where it beat a k-way heap
/// merge).
fn prefix_union(shard: &SealedShard, prefix: &str, stats: &mut PruneStats) -> Vec<FileId> {
    let mut union = Vec::with_capacity(shard.prefix_postings(prefix).map(|list| list.len()).sum());
    for list in shard.prefix_postings(prefix) {
        stats.blocks_scored += list.len().div_ceil(BLOCK_SIZE) as u64;
        list.decode_append(&mut union);
    }
    union.sort();
    union.dedup();
    union
}

/// One required cursor of a group.  An exact term's cursor carries its block
/// buffers inline and a prefix's borrows its union, hence the sizes; leaves
/// sit in their shard's arena and are not moved once the merge starts, and
/// boxing the large one would be an allocation per cursor again.
#[allow(clippy::large_enum_variant)]
enum Leaf<'a> {
    /// An exact term: its sealed list, with its score bound.
    Term(TermCursor<'a>),
    /// A prefix term: its materialised union.
    Prefix(SliceCursor<'a>),
}

impl PostingCursor for Leaf<'_> {
    #[inline]
    fn current(&self) -> Option<FileId> {
        match self {
            Leaf::Term(term) => term.cursor.current(),
            Leaf::Prefix(union) => union.current(),
        }
    }

    #[inline]
    fn advance(&mut self) {
        match self {
            Leaf::Term(term) => term.cursor.advance(),
            Leaf::Prefix(union) => union.advance(),
        }
    }

    #[inline]
    fn seek(&mut self, target: FileId) -> Option<FileId> {
        match self {
            Leaf::Term(term) => term.cursor.seek(target),
            Leaf::Prefix(union) => union.seek(target),
        }
    }

    fn len(&self) -> usize {
        match self {
            Leaf::Term(term) => term.cursor.len(),
            Leaf::Prefix(union) => union.len(),
        }
    }
}

/// Every cursor of one shard's evaluation: the groups' required cursors in
/// one arena, their `NOT` cursors in another, each group owning a range of
/// both.
struct Cursors<'a> {
    leaves: Vec<Leaf<'a>>,
    excluded: Vec<BlockCursor<'a>>,
}

/// One `AND` group over one shard: the documents every required cursor
/// reaches and no excluded cursor does, in ascending order.
struct Group {
    /// Its required cursors in [`Cursors::leaves`], one per distinct term,
    /// ascending by list length: the first, the shortest, drives the
    /// leapfrog.
    leaves: Range<usize>,
    /// Its `NOT` cursors in [`Cursors::excluded`]: only ever seeked to a
    /// candidate.
    excluded: Range<usize>,
    /// The query group's length: what the constant scorer reports as
    /// `matched_terms`.
    weight: usize,
    /// Sum of the terms' list bounds.
    list_bound: f64,
    /// Its list bound and those of the groups before it, summed: what the
    /// groups up to this one can add to a score.
    upto: f64,
    /// The group's next match; `None` once it has none left.
    current: Option<FileId>,
}

impl Group {
    /// Opens `group` over `shard` into `cursors`, taking one union per prefix
    /// term from `unions`; `None` (and nothing left in `cursors`) when some
    /// required term matches nothing there.
    fn open<'a>(
        shard: &'a SealedShard,
        plan: &Plan<'_>,
        group: &QueryGroup,
        unions: &mut std::slice::Iter<'a, Vec<FileId>>,
        cursors: &mut Cursors<'a>,
    ) -> Option<Self> {
        let start = cursors.leaves.len();
        let mut list_bound = 0.0;
        let mut alive = true;
        for term in group.required() {
            match term {
                QueryTerm::Exact(term) => match TermCursor::open(shard, plan, term) {
                    Some(cursor) => {
                        let seen = cursors.leaves[start..]
                            .iter()
                            .any(|leaf| matches!(leaf, Leaf::Term(c) if c.term == cursor.term));
                        if !seen {
                            list_bound += cursor.list_bound;
                            cursors.leaves.push(Leaf::Term(cursor));
                        }
                    }
                    None => alive = false,
                },
                QueryTerm::Prefix(_) => {
                    let union = unions.next().expect("one union per prefix term");
                    alive &= !union.is_empty();
                    cursors.leaves.push(Leaf::Prefix(SliceCursor::new(union)));
                }
            }
        }
        if !alive {
            cursors.leaves.truncate(start);
            return None;
        }
        // Selectivity ordering: the rarest list drives, so no candidate set
        // can exceed it (prefixes ahead of exact terms of the same length).
        cursors.leaves[start..].sort_by_key(|leaf| (leaf.len(), matches!(leaf, Leaf::Term(_))));
        let excluded = cursors.excluded.len();
        cursors.excluded.extend(
            group
                .excluded()
                .iter()
                .filter_map(|term| shard.postings(term))
                .filter(|list| !list.is_empty())
                .map(|list| list.cursor()),
        );
        let mut group = Group {
            leaves: start..cursors.leaves.len(),
            excluded: excluded..cursors.excluded.len(),
            weight: group.len(),
            list_bound,
            upto: 0.0,
            current: None,
        };
        group.current = group.settle(cursors);
        Some(group)
    }

    /// Leapfrog from where the lead stands: every other required cursor
    /// seeks to the lead's id, one that lands beyond it sends the lead
    /// there, and an excluded cursor that lands on it sends the lead on.
    /// Returns the first id all agree on.
    #[inline]
    fn settle(&self, cursors: &mut Cursors<'_>) -> Option<FileId> {
        if self.leaves.len() == 1 && self.excluded.is_empty() {
            // A lone cursor agrees with itself.
            return cursors.leaves[self.leaves.start].current();
        }
        let (lead, rest) = cursors.leaves[self.leaves.clone()].split_first_mut()?;
        let excluded = &mut cursors.excluded[self.excluded.clone()];
        let mut candidate = lead.current()?;
        'candidate: loop {
            for leaf in rest.iter_mut() {
                let at = leaf.seek(candidate)?;
                if at != candidate {
                    candidate = lead.seek(at)?;
                    continue 'candidate;
                }
            }
            if excluded.iter_mut().any(|c| c.seek(candidate) == Some(candidate)) {
                lead.advance();
                candidate = lead.current()?;
                continue;
            }
            return Some(candidate);
        }
    }

    /// Moves past the current match.
    #[inline]
    fn advance(&mut self, cursors: &mut Cursors<'_>) {
        cursors.leaves[self.leaves.start].advance();
        self.current = self.settle(cursors);
    }

    /// Moves to the first match at or after `target`.
    fn seek(&mut self, target: FileId, cursors: &mut Cursors<'_>) {
        if self.current.is_some_and(|doc| doc < target) {
            cursors.leaves[self.leaves.start].seek(target);
            self.current = self.settle(cursors);
        }
    }

    /// Calls `f` on every exact term's cursor.  (Internal iteration: the
    /// loop runs this per document, and a `once().chain().filter_map()`
    /// adaptor stack measured 5 % slower on single-term queries.)
    #[inline]
    fn for_each_term<'a>(&self, cursors: &mut Cursors<'a>, mut f: impl FnMut(&mut TermCursor<'a>)) {
        for leaf in &mut cursors.leaves[self.leaves.clone()] {
            if let Leaf::Term(term) = leaf {
                f(term);
            }
        }
    }

    fn retire(&self, cursors: &mut Cursors<'_>, stats: &mut PruneStats) {
        self.for_each_term(cursors, |c| stats.retire(&c.cursor));
        cursors.excluded[self.excluded.clone()].iter().for_each(|c| stats.retire(c));
    }
}

/// One document's BM25 score, summed over one slot per query term: a term
/// two matching groups both carry fills its slot once, and the filled slots
/// are summed in ascending term order, in `f64`, rounding once.
struct TermSum {
    slots: Vec<f32>,
    /// Which slots hold a contribution, one bit each.
    filled: Vec<u64>,
}

impl TermSum {
    fn new(terms: usize) -> Self {
        TermSum { slots: vec![0.0; terms], filled: vec![0; terms.div_ceil(64)] }
    }

    /// Fills `term`'s slot unless it is filled; returns what it added.
    #[inline]
    fn add(&mut self, (term, score): (usize, f32)) -> f32 {
        let bit = 1u64 << (term % 64);
        let word = &mut self.filled[term / 64];
        if *word & bit != 0 {
            return 0.0;
        }
        *word |= bit;
        self.slots[term] = score;
        score
    }

    /// The filled slots summed: what pruning compares, never what is
    /// reported.
    fn partial(&self) -> f64 {
        let mut sum = 0.0;
        for (w, &word) in self.filled.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                sum += f64::from(self.slots[w * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        sum
    }

    /// The score and the number of distinct terms that made it; empties
    /// every slot.
    #[inline]
    fn take(&mut self) -> (f32, usize) {
        let mut sum = 0.0f64;
        let mut terms = 0;
        for (w, word) in self.filled.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                sum += f64::from(self.slots[w * 64 + bits.trailing_zeros() as usize]);
                terms += 1;
                bits &= bits - 1;
            }
        }
        (sum as f32, terms)
    }
}

/// The `OR` node over one shard: MaxScore over the groups' matches, into
/// `top`.  Compiled once per scorer: `RANKED` is `plan.ranked`.
fn evaluate_shard<const RANKED: bool>(
    shard: &SealedShard,
    plan: &Plan<'_>,
    top: &mut TopK<'_>,
    sum: &mut TermSum,
    stats: &mut PruneStats,
    should_cancel: &dyn Fn() -> bool,
) {
    let opening = Instant::now();
    // The prefix unions first: the groups' cursors borrow them.
    let prefixes = plan.query.groups().iter().flat_map(|group| group.required());
    let unions: Vec<Vec<FileId>> = prefixes
        .filter_map(|term| match term {
            QueryTerm::Prefix(prefix) => Some(prefix_union(shard, prefix, stats)),
            QueryTerm::Exact(_) => None,
        })
        .collect();
    let mut next_union = unions.iter();
    let required = plan.query.groups().iter().map(QueryGroup::len).sum();
    let mut cursors: Cursors<'_> =
        Cursors { leaves: Vec::with_capacity(required), excluded: Vec::new() };
    let mut groups: Vec<Group> = Vec::with_capacity(plan.query.groups().len());
    for group in plan.query.groups() {
        if let Some(group) = Group::open(shard, plan, group, &mut next_union, &mut cursors) {
            groups.push(group);
        }
    }
    // A document matched through one group of a mixed query may hold terms
    // of another, whose cursors have leapt past it: score such a query
    // through cursors of its own, and never prune it.
    let prune = RANKED && !plan.mixed;
    let mut scorers: Vec<TermCursor<'_>> = if RANKED && plan.mixed {
        plan.terms.iter().filter_map(|term| TermCursor::open(shard, plan, term)).collect()
    } else {
        Vec::new()
    };
    if prune {
        // Ascending bound: the non-essential groups are always a prefix.
        groups.sort_by(|a, b| a.list_bound.total_cmp(&b.list_bound));
    }
    stats.lookup += opening.elapsed();

    // Groups leave once they have no match left; the groups before
    // `essential` are the non-essential ones.
    let mut essential = 0;
    let mut threshold = top.threshold();
    let mut changed = true;
    let (mut candidates, mut scored, mut seeks) = (0u64, 0u64, 0u64);
    loop {
        if changed {
            groups.retain(|group| {
                let live = group.current.is_some();
                if !live {
                    group.retire(&mut cursors, stats);
                }
                live
            });
            let mut upto = 0.0;
            for group in &mut groups {
                upto += group.list_bound;
                group.upto = upto;
            }
            essential = if prune { first_essential(&groups, 0, threshold) } else { 0 };
            changed = false;
        }
        let doc = match &groups[essential..] {
            [] => break,
            [lone] => lone.current,
            live => live.iter().filter_map(|group| group.current).min(),
        };
        let doc = doc.expect("groups with no match left have left");
        candidates += 1;
        if candidates.is_multiple_of(CANCEL_STRIDE) && should_cancel() {
            stats.cancelled = true;
            break;
        }
        // The essential groups on the candidate: take what the scorer needs
        // from their cursors, then move them on.
        let norm = if RANKED { shard.doc_norm(doc) } else { 0.0 };
        let mut weight = 0;
        let mut lone = 0.0;
        for group in &mut groups[essential..] {
            if group.current == Some(doc) {
                weight = weight.max(group.weight);
                if RANKED && plan.one_term {
                    group.for_each_term(&mut cursors, |c| lone = c.contribution(norm).1);
                } else if prune {
                    group.for_each_term(&mut cursors, |c| {
                        sum.add(c.contribution(norm));
                    });
                }
                group.advance(&mut cursors);
                changed |= group.current.is_none();
            }
        }
        // The non-essential groups, highest bound first, while the partial
        // score plus the bounds not yet looked at can reach θ.
        let mut reachable = true;
        let mut partial = if essential > 0 { sum.partial() } else { 0.0 };
        for i in (0..essential).rev() {
            if partial + groups[i].upto + SLACK <= threshold {
                reachable = false;
                break;
            }
            seeks += 1;
            let group = &mut groups[i];
            group.seek(doc, &mut cursors);
            if group.current == Some(doc) {
                group.for_each_term(&mut cursors, |c| {
                    partial += f64::from(sum.add(c.contribution(norm)));
                });
            }
            changed |= group.current.is_none();
        }
        for c in &mut scorers {
            if c.cursor.seek(doc) == Some(doc) {
                sum.add(c.contribution(norm));
            }
        }
        let (score, matched) = if RANKED && plan.one_term {
            (lone, 1)
        } else if RANKED {
            sum.take()
        } else {
            (0.0, weight)
        };
        // A score below θ loses whatever its path; a tie is for `offer`.
        if reachable {
            scored += 1;
            if f64::from(score) >= threshold {
                top.offer(doc, score, matched);
                if RANKED {
                    threshold = top.threshold();
                    if prune {
                        essential = first_essential(&groups, essential, threshold);
                    }
                }
            }
        }
    }
    stats.rounds += candidates;
    stats.scored += scored;
    stats.seeks += seeks;
    groups.iter().for_each(|group| group.retire(&mut cursors, stats));
    scorers.iter().for_each(|c| stats.retire(&c.cursor));
}

/// Where the essential groups start once θ is `threshold`: past `from`, and
/// past every group whose bound, summed with the bounds before it, cannot
/// reach θ.  θ only rises, so the boundary only moves right.
fn first_essential(groups: &[Group], from: usize, threshold: f64) -> usize {
    from + groups[from..].iter().take_while(|group| group.upto + SLACK <= threshold).count()
}

/// Sealed shards plus their doc table: what examples and tests hold to
/// answer queries (the server and the CLI hold an `IndexSnapshot`).
///
/// [`Searcher::new`] seals in-memory indices — one joined index
/// (Implementations 1 and 2) or the un-joined replicas of Implementation 3,
/// which are searched together without ever being merged.
#[derive(Debug)]
pub struct Searcher<'a> {
    shards: Vec<SealedShard>,
    docs: &'a DocTable,
    parallel: bool,
}

impl<'a> Searcher<'a> {
    /// Seals every index of `replicas` into a shard of its own; paths
    /// resolve through `docs`.
    #[must_use]
    pub fn new<'i>(
        replicas: impl IntoIterator<Item = &'i InMemoryIndex>,
        docs: &'a DocTable,
    ) -> Self {
        let shards = replicas.into_iter().map(SealedShard::from_index).collect();
        Searcher { shards, docs, parallel: false }
    }

    /// Evaluates every shard on a scoped thread of its own.
    ///
    /// Worth it only for large replica counts or long queries; provided to
    /// reproduce the paper's "search can work with multiple indices in
    /// parallel" claim.
    #[must_use]
    pub fn with_parallel_lookup(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Every match of the boolean query, in rank order.
    #[must_use]
    pub fn search(&self, query: &Query) -> SearchResults {
        self.search_limited(query, usize::MAX)
    }

    /// The best `k` matches of the boolean query: exactly the first `k` hits
    /// of [`Searcher::search`].
    #[must_use]
    pub fn search_limited(&self, query: &Query, k: usize) -> SearchResults {
        self.evaluate(query, Scorer::Constant, k).0
    }

    /// [`evaluate`] over this searcher's shards.
    #[must_use]
    pub fn evaluate(&self, query: &Query, scorer: Scorer, k: usize) -> (SearchResults, PruneStats) {
        if !self.parallel || self.shards.len() < 2 {
            return evaluate(&self.shards, self.docs, query, scorer, k, &|| false);
        }
        let parts: Vec<(SearchResults, PruneStats)> = std::thread::scope(|scope| {
            let spawn = |shard| {
                let shard = std::slice::from_ref(shard);
                scope.spawn(move || evaluate(shard, self.docs, query, scorer, k, &|| false))
            };
            let handles: Vec<_> = self.shards.iter().map(spawn).collect();
            handles.into_iter().map(|h| h.join().expect("shard evaluation panicked")).collect()
        });
        let mut stats = PruneStats::default();
        let mut hits = Vec::new();
        for (part, part_stats) in parts {
            stats.merge(part_stats);
            hits.extend(part);
        }
        (collect(hits, self.shards.len(), k), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One joined index and an equivalent 3-replica split of the same tiny
    /// document collection.
    fn fixture() -> (InMemoryIndex, Vec<InMemoryIndex>, DocTable) {
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
        (joined, replicas, table)
    }

    fn parse(raw: &str) -> Query {
        Query::parse(raw).unwrap()
    }

    #[test]
    fn single_term_query() {
        let (index, _, docs) = fixture();
        let searcher = Searcher::new([&index], &docs);
        let results = searcher.search(&parse("rust"));
        assert_eq!(results.len(), 4);
        assert!(results.paths().contains(&"a.txt"));
        assert!(!results.paths().contains(&"c.txt"));
    }

    #[test]
    fn search_limited_keeps_the_best_k_in_rank_order() {
        let (index, replicas, docs) = fixture();
        let single = Searcher::new([&index], &docs);
        let multi = Searcher::new(&replicas, &docs);
        // Two documents match both terms of the first group and rank first;
        // within a rank, paths ascend.
        let query = parse("rust search OR java");
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
    fn and_query_intersects() {
        let (index, _, docs) = fixture();
        let results = Searcher::new([&index], &docs).search(&parse("rust search"));
        assert_eq!(results.paths(), vec!["b.txt", "e.txt"]);
        // A repeated word still counts towards the group's weight.
        let doubled = Searcher::new([&index], &docs).search(&parse("rust rust search"));
        assert_eq!(doubled.paths(), vec!["b.txt", "e.txt"]);
        assert!(doubled.hits().iter().all(|h| h.matched_terms == 3));
    }

    #[test]
    fn or_query_unions_and_ranks_by_matched_terms() {
        let (index, _, docs) = fixture();
        let results = Searcher::new([&index], &docs).search(&parse("rust parallel OR java"));
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
        let searcher = Searcher::new([&index], &docs);
        assert!(searcher.search(&parse("nonexistent")).is_empty());
        assert!(searcher.search(&parse("rust nonexistent")).is_empty());
        // A dead group does not take a live one down with it.
        assert_eq!(searcher.search(&parse("rust nonexistent OR java")).len(), 2);
    }

    #[test]
    fn multi_index_matches_single_index() {
        let (index, replicas, docs) = fixture();
        let single = Searcher::new([&index], &docs);
        let multi = Searcher::new(&replicas, &docs);
        let multi_par = Searcher::new(&replicas, &docs).with_parallel_lookup(true);

        for raw in [
            "rust",
            "rust search",
            "index OR java",
            "parallel rust OR java search",
            "rust java index OR search",
        ] {
            let q = parse(raw);
            let expected = single.search(&q);
            assert_eq!(multi.search(&q), expected, "sequential multi, query {raw:?}");
            assert_eq!(multi_par.search(&q), expected, "parallel multi, query {raw:?}");
            assert_eq!(
                multi_par.search_limited(&q, 2).hits(),
                &expected.hits()[..expected.len().min(2)],
                "parallel multi, bounded, query {raw:?}"
            );
        }
    }

    #[test]
    fn not_terms_exclude_documents() {
        let (index, replicas, docs) = fixture();
        let searcher = Searcher::new([&index], &docs);
        // All rust documents except the ones also mentioning java.
        let results = searcher.search(&parse("rust NOT java"));
        assert_eq!(results.paths(), vec!["a.txt", "b.txt", "e.txt"]);
        // Dash syntax and the un-joined replicas agree.
        assert_eq!(Searcher::new(&replicas, &docs).search(&parse("rust -java")), results);
        // Excluding a term that never occurs changes nothing.
        assert_eq!(searcher.search(&parse("rust NOT cobol")).len(), 4);
        // Subtracting down to nothing leaves nothing.
        assert!(searcher.search(&parse("java NOT java NOT rust")).is_empty());
    }

    #[test]
    fn prefix_queries_expand_over_index_terms() {
        let (index, replicas, docs) = fixture();
        let searcher = Searcher::new([&index], &docs);
        // "ja*" matches "java"; "par*" matches "parallel".
        assert_eq!(searcher.search(&parse("ja*")).paths(), vec!["c.txt", "d.txt"]);
        assert_eq!(searcher.search(&parse("par* search")).paths(), vec!["e.txt"]);
        // "s*" matches "search" only; "*a*"-like overlap: "ja* OR ru*" covers
        // every document once.
        assert_eq!(searcher.search(&parse("ja* OR ru*")).len(), 5);
        // Prefix matching nothing yields no hits.
        assert!(searcher.search(&parse("zz*")).is_empty());
        // Expansion covers every replica, sequentially and in parallel.
        let expected = searcher.search(&parse("ja*"));
        assert_eq!(Searcher::new(&replicas, &docs).search(&parse("ja*")), expected);
        let parallel = Searcher::new(&replicas, &docs).with_parallel_lookup(true);
        assert_eq!(parallel.search(&parse("ja*")), expected);
    }

    #[test]
    fn sealed_dictionary_does_not_change_results() {
        // Sealing sorts the vocabulary into the shard's dictionary whatever
        // order the terms were inserted in: one joined index and its
        // replicas, sealed separately, answer alike.
        let (index, replicas, docs) = fixture();
        let queries =
            ["rust", "rust search", "ja* OR par*", "inde*", "rust NOT java", "s* r* OR p*"];
        let searcher = Searcher::new([&index], &docs);
        let multi = Searcher::new(&replicas, &docs);
        for raw in queries {
            assert_eq!(multi.search(&parse(raw)), searcher.search(&parse(raw)), "query {raw:?}");
        }
    }

    #[test]
    fn duplicate_document_across_or_groups_is_reported_once() {
        let (index, _, docs) = fixture();
        // b.txt matches both groups.
        let results = Searcher::new([&index], &docs).search(&parse("rust OR search"));
        assert_eq!(results.paths().iter().filter(|p| **p == "b.txt").count(), 1);
        assert_eq!(results.len(), 5);
    }

    #[test]
    fn tiny_and_fast_path_matches_generic_intersection() {
        // One rare term (3 postings) against mid and common ones: the rare
        // list drives, the long lists are only ever seeked.
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
        let searcher = Searcher::new([&index], &docs);
        // rare: docs 0, 181, 362; rare ∩ even = 0, 362.
        let (results, stats) = searcher.evaluate(&parse("rare even common"), Scorer::Constant, 9);
        assert_eq!(results.paths(), vec!["doc0000.txt", "doc0362.txt"]);
        assert!(stats.blocks_skipped > 0, "the common lists were not walked: {stats:?}");
        // An exclusion drops a candidate without disturbing the rest.
        let results = searcher.search(&parse("rare even NOT mid"));
        assert_eq!(results.paths(), vec!["doc0362.txt"]);
        let wider = searcher.search(&parse("mid even common"));
        assert!(wider.paths().contains(&"doc0000.txt"));
        assert_eq!(wider.len(), 9, "mid ∩ even: d % 62 == 0");
    }

    #[test]
    fn a_list_stops_proposing_candidates_once_theta_passes_its_bound() {
        // `common` is in every document, `rare` in four: once the heap holds
        // two documents with both, θ is past `common`'s bound, and only
        // `rare` proposes candidates — a document holding `common` alone is
        // never scored, and `common` is only seeked to `rare`'s documents.
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for d in 0..2_000u32 {
            let id = docs.insert(format!("doc{d:04}.txt"));
            let mut words = vec![(Term::from("common"), 1)];
            if [0, 1, 700, 1500].contains(&d) {
                words.push((Term::from("rare"), 5));
            }
            index.insert_file_counted(id, words);
        }
        let shards = vec![SealedShard::from_index(&index)];
        let query = parse("rare OR common");
        let run = |k| evaluate(&shards, &docs, &query, Scorer::Bm25, k, &|| false);
        let (results, stats) = run(2);
        assert_eq!(results.paths(), ["doc0000.txt", "doc0001.txt"]);
        assert_eq!((stats.rounds, stats.scored, stats.seeks), (4, 4, 2), "{stats:?}");
        assert!(stats.blocks_skipped >= 12, "{stats:?}");
        // Unbounded, θ never rises: every document is a candidate.
        let (all, stats) = run(usize::MAX);
        assert_eq!((all.len(), stats.rounds, stats.seeks), (2_000, 2_000, 0));
        assert_eq!(all.hits()[..2], results.hits()[..]);
    }

    #[test]
    fn cancellation_stops_evaluation_between_groups() {
        use std::cell::Cell;
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for d in 0..1000u32 {
            let id = docs.insert(format!("doc{d:04}.txt"));
            index.insert_file(id, [Term::from(if d % 2 == 0 { "even" } else { "odd" })]);
        }
        let shards = vec![SealedShard::from_index(&index)];
        let query = parse("even OR odd");
        let run = |budget: usize| {
            let polls = Cell::new(0usize);
            let cancel = || {
                polls.set(polls.get() + 1);
                polls.get() > budget
            };
            let (results, stats) =
                evaluate(&shards, &docs, &query, Scorer::Constant, usize::MAX, &cancel);
            assert_eq!(stats.cancelled, polls.get() > budget, "budget {budget}");
            results
        };
        // Budget 0: cancelled before the first shard, nothing evaluates.
        assert!(run(0).is_empty());
        // A budget that runs out mid-merge: both groups contributed, neither
        // in full — the caller sees a strict subset it knows to discard.
        let partial = run(4);
        assert!(!partial.is_empty() && partial.len() < 1000, "{} hits", partial.len());
        assert!(
            partial.paths().contains(&"doc0000.txt") && partial.paths().contains(&"doc0001.txt")
        );
        // An evaluation that is never cancelled is unaffected.
        assert_eq!(run(usize::MAX).len(), 1000);
    }

    #[test]
    fn path_of_unknown_id_is_placeholder() {
        let (index, _, _) = fixture();
        let empty_docs = DocTable::new();
        let results = Searcher::new([&index], &empty_docs).search(&parse("rust"));
        assert!(results.hits().iter().all(|h| &*h.path == "<unknown>"));
    }

    #[test]
    fn mixed_queries_score_terms_of_groups_that_did_not_match() {
        // c.txt matches through "query" alone but also holds "index": its
        // score sums both, exactly what a pure disjunction gives it.
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for (path, words) in [
            ("a.txt", vec![("rust", 4u32), ("index", 1)]),
            ("b.txt", vec![("rust", 1)]),
            ("c.txt", vec![("index", 2), ("query", 2)]),
        ] {
            let id = docs.insert(path);
            index.insert_file_counted(id, words.into_iter().map(|(w, tf)| (Term::from(w), tf)));
        }
        let shards = vec![SealedShard::from_index(&index)];
        let run = |raw: &str| evaluate(&shards, &docs, &parse(raw), Scorer::Bm25, 10, &|| false).0;
        let mixed = run("rust index OR query");
        let disjunction = run("rust OR index OR query");
        assert_eq!(mixed.len(), 2, "b.txt holds rust alone and matches no group");
        for hit in mixed.hits() {
            let same = disjunction.hits().iter().find(|h| h.path == hit.path).unwrap();
            assert_eq!(hit.score.to_bits(), same.score.to_bits(), "{}", hit.path);
            assert_eq!(hit.matched_terms, 2, "{}", hit.path);
        }
    }
}
