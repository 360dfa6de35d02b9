//! Query evaluation: one window-at-a-time evaluator over sealed shards.
//!
//! [`evaluate`] is the only function in the workspace that answers a query.
//! The serving engine, `IndexSnapshot`, the `dsearch search` command, the
//! examples and the tests all reach it — directly, or through [`Searcher`],
//! which seals in-memory indices first.
//!
//! Per shard the query (an `OR` of `AND` groups) becomes a small cursor tree:
//!
//! * an **`AND` group** walks the decoded block of its rarest required
//!   cursor, the *lead*, and filters it by every other required cursor in
//!   turn — forward seeks only, so whole blocks of the longer lists are
//!   skipped through their skip tables undecoded — and by its `NOT` cursors.
//!   Before the lead decodes its next block it jumps to where the others
//!   stand, so the blocks a leapfrog would skip stay skipped;
//! * a **prefix term** (`word*`) is the union of the posting lists of its
//!   dictionary range, decoded once into a buffer a [`SliceCursor`] walks as
//!   one block;
//! * a **`NOT` term** is a cursor that is only ever `seek`ed: a candidate it
//!   lands on is dropped, blocks it never has to look into stay undecoded;
//! * the **`OR` node** works through the ids a *window* at a time and offers
//!   each matching document exactly once to the shared `TopK`.
//!
//! A window runs from the lowest next id of the essential groups (below) to
//! the lowest last id of their current blocks, at most 4 096 ids wide,
//! so every essential group hands out its matches in the window from one
//! decoded block.  When one group is essential — every one-group query, most
//! of a disjunction once θ has risen — its matches are walked directly.
//! When several are, each writes its matches into the window: per document
//! one slot per query term and a term mask (BM25), or the best group weight
//! (the constant scorer); the window's documents are then walked in id
//! order.
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
//! the other, *essential*, groups cannot make the heap, so windows are made
//! of the essential groups' matches alone.  The boundary is drawn at each
//! window's start; inside a window θ may rise, and each candidate is held
//! against it: its exact partial score plus the bounds of the non-essential
//! groups must still reach θ before the non-essential groups — only ever
//! `seek`ed — are looked at, highest bound first, and only while that stays
//! so.  Once every group is non-essential the shard is done.  A single `AND`
//! group is the one-group case of the same loop.  A group's bounds cover its
//! own terms only, so a query mixing several groups with a multi-term one is
//! never pruned: one cursor per query term walks each window beside the
//! groups and fills the slots of the documents a group matched.  It, and
//! every query the constant scorer answers, runs the same loop with every
//! group essential.
//!
//! Shards are evaluated one after another into one heap, each scored with
//! its own statistics — exactly how the same documents score when routed
//! across separate shard processes.
//!
//! What an evaluation allocates does not depend on its groups, cursors or
//! postings: the window's buffers are allocated once per evaluation and
//! shared by its shards, and every group's cursors live in two arenas per
//! shard (a cursor decodes into buffers of its own, inline).

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

/// The widest window, in ids: what a window's slots and marks are sized for.
/// Most windows end sooner, at the end of an essential group's block.
const WINDOW: usize = 4096;

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
    /// Candidates: documents the essential groups matched.
    pub rounds: u64,
    /// The candidates of windows with one essential group, walked straight
    /// off its matches; the rest (`rounds - lone`) were walked through a
    /// window's slots.
    pub lone: u64,
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
        self.lone += other.lone;
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
    let plan = Plan {
        query,
        terms: query.terms(),
        ranked: scorer == Scorer::Bm25 && scorable(query),
        mixed: groups.len() > 1 && groups.iter().any(|group| group.len() > 1),
    };
    let mut top = TopK::new(k, docs);
    let mut window = Window::new(&plan);
    for shard in shards {
        stats.cancelled = stats.cancelled || should_cancel();
        if stats.cancelled {
            break;
        }
        let sink = Sink::new(&mut top, should_cancel);
        if plan.ranked {
            evaluate_shard::<true>(shard, &plan, sink, &mut window, &mut stats);
        } else {
            evaluate_shard::<false>(shard, &plan, sink, &mut window, &mut stats);
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
}

/// The buffers an evaluation's windows work in, allocated once and shared
/// by its shards.
struct Window {
    /// One group's matches in the window, ascending: at most a block, or a
    /// window's worth when a prefix union leads.
    ids: Vec<FileId>,
    /// Ranked: the matches' term frequencies, one row of [`BLOCK_SIZE`] per
    /// required term of the group, the rows in ascending term order.
    tfs: Vec<u32>,
    /// Ranked: each row's idf.
    idfs: Vec<f32>,
    /// Several groups: the window's documents some group matched, a bit each.
    seen: Vec<u64>,
    /// Several groups, per document of the window: ranked, which query terms
    /// its slots hold, `words` words of bits; constant, its best group weight.
    marks: Vec<u64>,
    /// Ranked, several groups: per document of the window, one contribution
    /// per query term.
    slots: Vec<f32>,
    /// Words of marks a document.
    words: usize,
    /// Slots a document: the query's terms.
    terms: usize,
}

impl Window {
    fn new(plan: &Plan<'_>) -> Self {
        let groups = plan.query.groups();
        let several = groups.len() > 1;
        let matches = if plan.query.has_prefix_terms() { WINDOW } else { BLOCK_SIZE };
        let rows =
            if plan.ranked { groups.iter().map(QueryGroup::len).max().unwrap_or(0) } else { 0 };
        let terms = plan.terms.len();
        let words = if plan.ranked { terms.div_ceil(64).max(1) } else { 1 };
        Window {
            ids: vec![FileId(0); matches],
            tfs: vec![0; rows * BLOCK_SIZE],
            idfs: vec![0.0; rows],
            seen: if several { vec![0; WINDOW / 64] } else { Vec::new() },
            marks: if several { vec![0; WINDOW * words] } else { Vec::new() },
            slots: if several && plan.ranked { vec![0.0; WINDOW * terms] } else { Vec::new() },
            words,
            terms,
        }
    }

    /// Marks document `at` as matched by a group.
    fn see(&mut self, at: usize) {
        self.seen[at / 64] |= 1 << (at % 64);
    }

    fn is_seen(&self, at: usize) -> bool {
        self.seen[at / 64] & (1 << (at % 64)) != 0
    }

    /// Stores `score` as `term`'s contribution to document `at` unless it
    /// holds one already; returns what it added.
    fn put(&mut self, at: usize, term: usize, score: f32) -> f64 {
        let word = &mut self.marks[at * self.words + term / 64];
        let bit = 1u64 << (term % 64);
        if *word & bit != 0 {
            return 0.0;
        }
        *word |= bit;
        self.slots[at * self.terms + term] = score;
        f64::from(score)
    }

    /// Document `at`'s contributions summed in ascending term order: what
    /// pruning compares, never what is reported.
    fn partial(&self, at: usize) -> f64 {
        let mut sum = 0.0;
        for (w, &word) in self.marks[at * self.words..][..self.words].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                sum += f64::from(
                    self.slots[at * self.terms + w * 64 + bits.trailing_zeros() as usize],
                );
                bits &= bits - 1;
            }
        }
        sum
    }

    /// Document `at`'s score and the number of distinct terms that made it;
    /// empties its slots.
    fn take(&mut self, at: usize) -> (f32, usize) {
        let score = self.partial(at) as f32;
        let marks = &mut self.marks[at * self.words..][..self.words];
        let terms = marks.iter().map(|word| word.count_ones() as usize).sum();
        marks.fill(0);
        (score, terms)
    }

    /// Empties document `at`'s slots.
    fn clear(&mut self, at: usize) {
        self.marks[at * self.words..][..self.words].fill(0);
    }
}

/// Where one shard's candidates go: the heap and its threshold, and the
/// counters of what the windows did.
struct Sink<'t, 'd, 'c> {
    top: &'t mut TopK<'d>,
    /// θ: what a score has to reach to be offered.
    threshold: f64,
    should_cancel: &'c dyn Fn() -> bool,
    cancelled: bool,
    candidates: u64,
    lone: u64,
    scored: u64,
    seeks: u64,
}

impl<'t, 'd, 'c> Sink<'t, 'd, 'c> {
    fn new(top: &'t mut TopK<'d>, should_cancel: &'c dyn Fn() -> bool) -> Self {
        let threshold = top.threshold();
        Sink {
            top,
            threshold,
            should_cancel,
            cancelled: false,
            candidates: 0,
            lone: 0,
            scored: 0,
            seeks: 0,
        }
    }

    /// Counts a candidate, polling `should_cancel` every
    /// [`CANCEL_STRIDE`]; `false` once the evaluation is cancelled.
    #[inline]
    fn candidate(&mut self) -> bool {
        self.candidates += 1;
        if self.candidates.is_multiple_of(CANCEL_STRIDE) && (self.should_cancel)() {
            self.cancelled = true;
        }
        !self.cancelled
    }

    /// A candidate scored in full.  A score below θ loses whatever its path;
    /// a tie is for `offer`.
    #[inline]
    fn offer(&mut self, doc: FileId, score: f32, matched: usize) {
        self.scored += 1;
        if f64::from(score) >= self.threshold {
            self.top.offer(doc, score, matched);
            self.threshold = self.top.threshold();
        }
    }
}

/// One exact term's posting cursor plus its score bound.
struct TermCursor<'a> {
    /// Index into [`Plan::terms`].
    term: usize,
    /// Its rank among its group's exact terms in ascending term order: the
    /// row of [`Window::tfs`] its frequencies go to.
    row: usize,
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
            row: 0,
            idf,
            list_bound,
            cursor: postings.cursor(),
        })
    }

    /// This term's share of the score of the document the cursor is on.
    fn contribution(&mut self, norm: f32) -> f32 {
        bm25_score(self.idf, self.cursor.current_tf(), norm)
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
/// sit in their shard's arena and are not moved once the windows start, and
/// boxing the large one would be an allocation per cursor again.
#[allow(clippy::large_enum_variant)]
enum Leaf<'a> {
    /// An exact term: its sealed list, with its score bound.
    Term(TermCursor<'a>),
    /// A prefix term: its materialised union.
    Prefix(SliceCursor<'a>),
}

impl Leaf<'_> {
    /// The row of [`Window::tfs`] an exact term's frequencies go to.
    fn row(&self) -> usize {
        match self {
            Leaf::Term(term) => term.row,
            Leaf::Prefix(_) => 0,
        }
    }

    /// The rest of the current block and, for an exact term, each id's
    /// frequency beside it (a query with a prefix term is never ranked).
    fn block_tfs(&mut self) -> (&[FileId], &[u32]) {
        match self {
            Leaf::Term(term) => term.cursor.block_tfs(),
            Leaf::Prefix(union) => (union.block(), &[]),
        }
    }
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
        self.advance_by(1);
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

    #[inline]
    fn block(&self) -> &[FileId] {
        match self {
            Leaf::Term(term) => term.cursor.block(),
            Leaf::Prefix(union) => union.block(),
        }
    }

    #[inline]
    fn advance_by(&mut self, n: usize) {
        match self {
            Leaf::Term(term) => term.cursor.advance_by(n),
            Leaf::Prefix(union) => union.advance_by(n),
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
    /// ascending by list length: the first, the shortest, leads.
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
    /// No match of the group lies below this id (the lead's position);
    /// `None` once it has none left.
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
                    Some(mut cursor) => {
                        let seen = cursors.leaves[start..]
                            .iter()
                            .any(|leaf| matches!(leaf, Leaf::Term(c) if c.term == cursor.term));
                        if !seen {
                            // Rows in ascending term order.
                            for leaf in &mut cursors.leaves[start..] {
                                if let Leaf::Term(other) = leaf {
                                    if other.term > cursor.term {
                                        other.row += 1;
                                    } else {
                                        cursor.row += 1;
                                    }
                                }
                            }
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
        // Selectivity ordering: the rarest list leads, so no window can hold
        // more candidates than its block (prefixes ahead of exact terms of
        // the same length).
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
        group.current = group.align(cursors);
        Some(group)
    }

    /// Moves the lead up to the furthest of the other required cursors'
    /// positions, none of which is sought: a lower bound on the group's next
    /// match, `None` once some required cursor has nothing left.
    fn align(&self, cursors: &mut Cursors<'_>) -> Option<FileId> {
        let (lead, rest) = cursors.leaves[self.leaves.clone()].split_first_mut()?;
        let mut furthest = lead.current()?;
        for leaf in rest.iter() {
            furthest = furthest.max(leaf.current()?);
        }
        lead.seek(furthest)
    }

    /// The last id of the lead's current block: the group's matches up to it
    /// come from the block it has decoded.
    fn block_end(&self, cursors: &Cursors<'_>) -> FileId {
        cursors.leaves[self.leaves.start].block().last().copied().unwrap_or(FileId(u32::MAX))
    }

    /// Writes the group's matches up to `hi` to `window.ids` — with `TFS`,
    /// each term's frequency to its row of `window.tfs` — moves the group
    /// past them, and returns how many there are.  Only the lead's current
    /// block is walked: `hi` is at most its last id.
    fn collect<const TFS: bool>(
        &mut self,
        cursors: &mut Cursors<'_>,
        hi: FileId,
        window: &mut Window,
    ) -> usize {
        let Some((lead, rest)) = cursors.leaves[self.leaves.clone()].split_first_mut() else {
            self.current = None;
            return 0;
        };
        let excluded = &mut cursors.excluded[self.excluded.clone()];
        let lead_row = lead.row() * BLOCK_SIZE;
        let (ids, tfs) = if TFS { lead.block_tfs() } else { (lead.block(), &[][..]) };
        let upto = ids.partition_point(|&id| id <= hi);
        let (whole, last) = (upto == ids.len(), upto.checked_sub(1).map(|at| ids[at]));
        let mut found = 0;
        if rest.is_empty() && excluded.is_empty() {
            window.ids[..upto].copy_from_slice(&ids[..upto]);
            if TFS {
                window.tfs[lead_row..][..upto].copy_from_slice(&tfs[..upto]);
            }
            found = upto;
        } else {
            // Each lead id is held against every other required cursor in
            // turn; one that lands past it skips the lead ids before.
            let mut i = 0;
            'ids: while i < upto {
                let id = ids[i];
                for leaf in rest.iter_mut() {
                    match leaf.seek(id) {
                        Some(at) if at == id => {
                            if let (true, Leaf::Term(term)) = (TFS, leaf) {
                                window.tfs[term.row * BLOCK_SIZE + found] =
                                    term.cursor.current_tf();
                            }
                        }
                        Some(at) => {
                            i += ids[i..upto].partition_point(|&id| id < at);
                            continue 'ids;
                        }
                        None => {
                            self.current = None;
                            return found;
                        }
                    }
                }
                i += 1;
                if excluded.iter_mut().any(|c| c.seek(id) == Some(id)) {
                    continue;
                }
                window.ids[found] = id;
                if TFS {
                    window.tfs[lead_row + found] = tfs[i - 1];
                }
                found += 1;
            }
        }
        match last {
            // Its block done, the lead stays on the block's last id and the
            // group's next match lies past it and past every other required
            // cursor: the next block is decoded by `enter`, if the group is
            // still essential then, at the first of those ids.
            Some(last) if whole => {
                lead.advance_by(upto - 1);
                let next = last.as_u32().checked_add(1).map(FileId);
                self.current = next.and_then(|next| {
                    rest.iter().try_fold(next, |next, leaf| leaf.current().map(|at| next.max(at)))
                });
            }
            _ => {
                lead.advance_by(upto);
                self.current = self.align(cursors);
            }
        }
        found
    }

    /// Decodes the block the group's next match can be in: a lead that
    /// stays on a block it has handed out seeks on to the group's bound.
    fn enter(&mut self, cursors: &mut Cursors<'_>) {
        let Some(next) = self.current else { return };
        let lead = &mut cursors.leaves[self.leaves.start];
        if lead.current().is_some_and(|at| at < next) {
            lead.seek(next);
            self.current = self.align(cursors);
        }
    }

    /// A non-essential group — one exact term — sought to `doc`: that term
    /// and its contribution when it holds `doc`.
    fn seek_term(
        &mut self,
        doc: FileId,
        norm: f32,
        cursors: &mut Cursors<'_>,
    ) -> Option<(usize, f32)> {
        let Leaf::Term(term) = &mut cursors.leaves[self.leaves.start] else {
            unreachable!("only a pure disjunction has non-essential groups");
        };
        self.current = term.cursor.seek(doc);
        (self.current == Some(doc)).then(|| (term.term, term.contribution(norm)))
    }

    fn retire(&self, cursors: &Cursors<'_>, stats: &mut PruneStats) {
        for leaf in &cursors.leaves[self.leaves.clone()] {
            if let Leaf::Term(term) = leaf {
                stats.retire(&term.cursor);
            }
        }
        cursors.excluded[self.excluded.clone()].iter().for_each(|c| stats.retire(c));
    }
}

/// The `OR` node over one shard: MaxScore over the groups' matches, a window
/// at a time, into the sink's heap.  Compiled once per scorer: `RANKED` is
/// `plan.ranked`.
fn evaluate_shard<const RANKED: bool>(
    shard: &SealedShard,
    plan: &Plan<'_>,
    mut sink: Sink<'_, '_, '_>,
    window: &mut Window,
    stats: &mut PruneStats,
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
    let mut scorers: Vec<TermCursor<'_>> = if RANKED && plan.mixed {
        plan.terms.iter().filter_map(|term| TermCursor::open(shard, plan, term)).collect()
    } else {
        Vec::new()
    };
    let prune = RANKED && !plan.mixed;
    if prune {
        // Ascending bound: the non-essential groups are always a prefix.
        groups.sort_by(|a, b| a.list_bound.total_cmp(&b.list_bound));
    }
    stats.lookup += opening.elapsed();

    while !sink.cancelled {
        // A window's start: the groups with no match left leave, and the
        // boundary between non-essential and essential groups is drawn.
        groups.retain(|group| {
            let live = group.current.is_some();
            if !live {
                group.retire(&cursors, stats);
            }
            live
        });
        let mut upto = 0.0;
        for group in &mut groups {
            upto += group.list_bound;
            group.upto = upto;
        }
        let essential = if prune { first_essential(&groups, sink.threshold) } else { 0 };
        let (behind, live) = groups.split_at_mut(essential);
        if live.is_empty() {
            break;
        }
        live.iter_mut().for_each(|group| group.enter(&mut cursors));
        let Some(lo) = live.iter().map(|group| group.current).min().flatten() else {
            // A group found it had no match left: the boundary moves.
            continue;
        };
        let widest = FileId(lo.as_u32().saturating_add(WINDOW as u32 - 1));
        let hi = live.iter().map(|group| group.block_end(&cursors)).fold(widest, FileId::min);
        let mut run = Run { shard, lo, hi, cursors: &mut cursors, window, sink: &mut sink };
        match live {
            // A mixed query's candidates always take their terms' slots.
            [lone] if scorers.is_empty() => run.lone::<RANKED>(lone, behind),
            live => run.several::<RANKED>(live, behind, &mut scorers, prune),
        }
    }
    stats.cancelled |= sink.cancelled;
    stats.rounds += sink.candidates;
    stats.lone += sink.lone;
    stats.scored += sink.scored;
    stats.seeks += sink.seeks;
    groups.iter().for_each(|group| group.retire(&cursors, stats));
    scorers.iter().for_each(|c| stats.retire(&c.cursor));
}

/// Where the essential groups start once θ is `threshold`: past every group
/// whose bound, summed with the bounds before it, cannot reach θ.
fn first_essential(groups: &[Group], threshold: f64) -> usize {
    groups.iter().take_while(|group| group.upto + SLACK <= threshold).count()
}

/// One window, `lo..=hi`, of one shard.
struct Run<'r, 's, 'a, 't, 'd, 'c> {
    shard: &'s SealedShard,
    lo: FileId,
    hi: FileId,
    cursors: &'r mut Cursors<'a>,
    window: &'r mut Window,
    sink: &'r mut Sink<'t, 'd, 'c>,
}

impl Run<'_, '_, '_, '_, '_, '_> {
    /// Document `doc`'s place in the window.
    fn at(&self, doc: FileId) -> usize {
        (doc.as_u32() - self.lo.as_u32()) as usize
    }

    /// One essential group: its matches are the candidates, walked as they
    /// come.
    fn lone<const RANKED: bool>(&mut self, group: &mut Group, behind: &mut [Group]) {
        let found = group.collect::<RANKED>(self.cursors, self.hi, self.window);
        self.sink.lone += found as u64;
        if !RANKED {
            for i in 0..found {
                if !self.sink.candidate() {
                    return;
                }
                self.sink.offer(self.window.ids[i], 0.0, group.weight);
            }
            return;
        }
        let rows = group.leaves.len();
        let mut term = 0;
        for leaf in &self.cursors.leaves[group.leaves.clone()] {
            if let Leaf::Term(leaf) = leaf {
                self.window.idfs[leaf.row] = leaf.idf;
                term = leaf.term;
            }
        }
        // What the non-essential groups can add; they exist only in a pure
        // disjunction, where the lone group is one exact term.
        let reach = behind.last().map_or(0.0, |group| group.upto);
        for i in 0..found {
            if !self.sink.candidate() {
                return;
            }
            let doc = self.window.ids[i];
            let norm = self.shard.doc_norm(doc);
            let mut sum = 0.0f64;
            for row in 0..rows {
                let tf = self.window.tfs[row * BLOCK_SIZE + i];
                sum += f64::from(bm25_score(self.window.idfs[row], tf, norm));
            }
            if behind.is_empty() {
                self.sink.offer(doc, sum as f32, rows);
            } else if sum + reach + SLACK > self.sink.threshold {
                let at = self.at(doc);
                self.window.put(at, term, sum as f32);
                self.finish(doc, at, sum, norm, behind);
            }
        }
    }

    /// Several essential groups: each writes its matches into the window,
    /// whose documents are then walked in id order.
    fn several<const RANKED: bool>(
        &mut self,
        live: &mut [Group],
        behind: &mut [Group],
        scorers: &mut [TermCursor<'_>],
        prune: bool,
    ) {
        for group in live.iter_mut() {
            if group.current.is_none_or(|doc| doc > self.hi) {
                continue;
            }
            let found = if prune {
                group.collect::<true>(self.cursors, self.hi, self.window)
            } else {
                group.collect::<false>(self.cursors, self.hi, self.window)
            };
            // A pruned query's groups are one exact term each.
            let term = match &self.cursors.leaves[group.leaves.start] {
                Leaf::Term(term) if prune => Some((term.term, term.idf)),
                _ => None,
            };
            for i in 0..found {
                let doc = self.window.ids[i];
                let at = self.at(doc);
                self.window.see(at);
                if !RANKED {
                    let best = &mut self.window.marks[at];
                    *best = (*best).max(group.weight as u64);
                } else if let Some((term, idf)) = term {
                    let score = bm25_score(idf, self.window.tfs[i], self.shard.doc_norm(doc));
                    self.window.put(at, term, score);
                }
            }
        }
        for scorer in scorers {
            self.scatter(scorer);
        }
        let span = self.at(self.hi) + 1;
        for w in 0..span.div_ceil(64) {
            let mut bits = std::mem::take(&mut self.window.seen[w]);
            while bits != 0 {
                let at = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !self.sink.candidate() {
                    return;
                }
                let doc = FileId(self.lo.as_u32() + at as u32);
                if !RANKED {
                    let weight = std::mem::take(&mut self.window.marks[at]);
                    self.sink.offer(doc, 0.0, weight as usize);
                } else if behind.is_empty() {
                    // θ may have risen past what the window's groups can add.
                    let (score, matched) = self.window.take(at);
                    if f64::from(score) + SLACK > self.sink.threshold {
                        self.sink.offer(doc, score, matched);
                    }
                } else {
                    let norm = self.shard.doc_norm(doc);
                    self.finish(doc, at, self.window.partial(at), norm, behind);
                }
            }
        }
    }

    /// A mixed query's term `scorer` over the window: its contribution to
    /// every document a group matched.
    fn scatter(&mut self, scorer: &mut TermCursor<'_>) {
        if scorer.cursor.seek(self.lo).is_none() {
            return;
        }
        loop {
            let (ids, tfs) = scorer.cursor.block_tfs();
            let upto = ids.partition_point(|&id| id <= self.hi);
            for (&doc, &tf) in ids[..upto].iter().zip(tfs) {
                // `checked_sub`: only a hostile list's next block starts below.
                let Some(at) = doc.as_u32().checked_sub(self.lo.as_u32()) else { continue };
                if self.window.is_seen(at as usize) {
                    let score = bm25_score(scorer.idf, tf, self.shard.doc_norm(doc));
                    self.window.put(at as usize, scorer.term, score);
                }
            }
            let whole = upto == ids.len();
            scorer.cursor.advance_by(upto);
            if !whole || scorer.cursor.current().is_none() {
                return;
            }
        }
    }

    /// The non-essential groups on candidate `doc`, highest bound first,
    /// while its partial score plus the bounds of those not yet looked at
    /// can reach θ; then its score, from the slots of `at`, which it
    /// empties.
    fn finish(
        &mut self,
        doc: FileId,
        at: usize,
        mut partial: f64,
        norm: f32,
        behind: &mut [Group],
    ) {
        for group in behind.iter_mut().rev() {
            if partial + group.upto + SLACK <= self.sink.threshold {
                self.window.clear(at);
                return;
            }
            self.sink.seeks += 1;
            if let Some((term, score)) = group.seek_term(doc, norm, self.cursors) {
                partial += self.window.put(at, term, score);
            }
        }
        let (score, matched) = self.window.take(at);
        self.sink.offer(doc, score, matched);
    }
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
        // `common` is in every document, `rare` in four.  The first window
        // ends with `common`'s first block: its documents are candidates, and
        // once the heap holds the two with both, θ is past `common`'s bound —
        // the rest, holding `common` alone, are never scored.  From the next
        // window on only `rare` proposes candidates, and `common` is only
        // seeked to `rare`'s documents.
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
        let counted = (stats.rounds, stats.lone, stats.scored, stats.seeks);
        assert_eq!(counted, (BLOCK_SIZE as u64 + 2, 2, 4, 2), "{stats:?}");
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
