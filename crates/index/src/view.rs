//! Borrowed posting views and allocation-free set operations.
//!
//! [`PostingList`] is the *owned* form of a posting list; [`PostingView`] is
//! the *borrowed* form — a sorted, duplicate-free `&[FileId]` slice that the
//! query evaluator can intersect, union and subtract without cloning anything
//! out of the index.  [`Postings`] bridges the two worlds for APIs that
//! usually hand out borrows but sometimes have to materialise a merge
//! (multi-shard lookups, prefix expansions): it is a three-way `Cow` whose
//! `Shared` variant lets a batch memo hand the same merged list to many
//! queries for the price of an `Arc` bump.
//!
//! The intersection switches strategy on the size ratio of its inputs: near
//! balanced lists walk both linearly; skewed pairs *gallop* — for each id of
//! the short list, probe exponentially through the long one and finish with a
//! binary search — which turns a `100 ∩ 100 000` intersection from ~100k
//! comparisons into a few hundred.  Multi-list unions (prefix queries,
//! cross-shard merges) go through a k-way heap merge instead of folding
//! pairwise, so each output id costs `O(log k)` instead of `O(k)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::block::{BlockCursor, CompressedView, PostingCursor, SliceCursor};
use crate::doc_table::FileId;
use crate::posting::PostingList;

/// Gallop through the longer list when it is at least this many times the
/// length of the shorter one; below the ratio a linear merge is cheaper
/// because the binary searches stop paying for themselves.
const GALLOP_RATIO: usize = 8;

/// A borrowed posting list: a sorted, duplicate-free slice of file ids.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostingView<'a> {
    ids: &'a [FileId],
}

impl<'a> PostingView<'a> {
    /// Wraps a sorted, duplicate-free slice of file ids.
    ///
    /// Sortedness is the caller's invariant (every slice handed out by
    /// [`PostingList`] satisfies it); it is checked in debug builds only.
    #[must_use]
    pub fn new(ids: &'a [FileId]) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "posting views must be sorted and duplicate-free"
        );
        PostingView { ids }
    }

    /// Number of files in the view.
    #[must_use]
    pub fn len(self) -> usize {
        self.ids.len()
    }

    /// Returns `true` when the view covers no files.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.ids.is_empty()
    }

    /// The underlying sorted slice.
    #[must_use]
    pub fn doc_ids(self) -> &'a [FileId] {
        self.ids
    }

    /// Returns `true` when `id` is in the view.
    #[must_use]
    pub fn contains(self, id: FileId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Iterates over the file ids in ascending order.
    pub fn iter(self) -> impl Iterator<Item = FileId> + 'a {
        self.ids.iter().copied()
    }

    /// Copies the view into an owned [`PostingList`].
    #[must_use]
    pub fn to_list(self) -> PostingList {
        PostingList::from_sorted(self.ids.to_vec())
    }

    /// Writes the intersection of `self` and `other` into `out` (cleared
    /// first).
    ///
    /// Balanced inputs take the linear two-pointer merge; when one list is at
    /// least [`GALLOP_RATIO`] times the other, every id of the short list is
    /// located in the long one by exponential probing plus binary search.
    pub fn intersect_into(self, other: PostingView<'_>, out: &mut Vec<FileId>) {
        out.clear();
        let (small, large) =
            if self.len() <= other.len() { (self.ids, other.ids) } else { (other.ids, self.ids) };
        if small.is_empty() {
            return;
        }
        if large.len() / small.len() >= GALLOP_RATIO {
            gallop_intersect(small, large, out);
        } else {
            linear_intersect(small, large, out);
        }
    }

    /// Writes `self` minus `other` into `out` (cleared first): the ids of
    /// `self` that do **not** occur in `other`.  Linear two-pointer walk.
    pub fn difference_into(self, other: PostingView<'_>, out: &mut Vec<FileId>) {
        out.clear();
        let (a, b) = (self.ids, other.ids);
        let mut j = 0usize;
        for &x in a {
            while j < b.len() && b[j] < x {
                j += 1;
            }
            if j == b.len() || b[j] != x {
                out.push(x);
            }
        }
    }
}

impl<'a> From<&'a PostingList> for PostingView<'a> {
    fn from(list: &'a PostingList) -> Self {
        list.as_view()
    }
}

fn linear_intersect(a: &[FileId], b: &[FileId], out: &mut Vec<FileId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

fn gallop_intersect(small: &[FileId], large: &[FileId], out: &mut Vec<FileId>) {
    // `base` only moves forward: both lists are sorted, so everything before
    // it is already known to be smaller than the next id of `small`.
    let mut base = 0usize;
    for &x in small {
        if base >= large.len() {
            break;
        }
        // Exponential probe: double the step until an element >= x is found
        // (or the list ends), then binary-search the bracketed window.  The
        // window upper bound is inclusive of the probe hit, which may be x
        // itself.
        let mut offset = 1usize;
        while base + offset < large.len() && large[base + offset] < x {
            offset <<= 1;
        }
        let hi = (base + offset + 1).min(large.len());
        match large[base..hi].binary_search(&x) {
            Ok(pos) => {
                out.push(x);
                base += pos + 1;
            }
            Err(pos) => base += pos,
        }
    }
}

/// Writes the k-way union of `views` into `out` (cleared first).
///
/// Zero or one input lists copy straight through, two take a linear merge,
/// and three or more go through a min-heap of cursors so each output id costs
/// `O(log k)` — the shape prefix queries and cross-shard merges produce.
pub fn union_into(views: &[PostingView<'_>], out: &mut Vec<FileId>) {
    out.clear();
    match views {
        [] => {}
        [only] => out.extend_from_slice(only.ids),
        [a, b] => linear_union(a.ids, b.ids, out),
        _ => {
            let mut heap: BinaryHeap<Reverse<(FileId, usize, usize)>> =
                BinaryHeap::with_capacity(views.len());
            for (list, view) in views.iter().enumerate() {
                if let Some(&first) = view.ids.first() {
                    heap.push(Reverse((first, list, 0)));
                }
            }
            while let Some(Reverse((id, list, pos))) = heap.pop() {
                if out.last().copied() != Some(id) {
                    out.push(id);
                }
                let ids = views[list].ids;
                let mut pos = pos + 1;
                let Some(&Reverse((top, _, _))) = heap.peek() else {
                    // Last list standing: the rest is a straight copy.
                    out.extend_from_slice(&ids[pos..]);
                    continue;
                };
                // Consume the run: everything in this list below the next
                // head elsewhere cannot be duplicated (every other cursor is
                // at `top` or beyond), so it copies without heap traffic —
                // near-linear when the lists are contiguous id ranges.
                while pos < ids.len() && ids[pos] < top {
                    out.push(ids[pos]);
                    pos += 1;
                }
                if pos < ids.len() {
                    heap.push(Reverse((ids[pos], list, pos)));
                }
            }
        }
    }
}

fn linear_union(a: &[FileId], b: &[FileId], out: &mut Vec<FileId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// A posting list that is borrowed when possible and owned only when a merge
/// had to materialise (the query layer's `Cow`, grown a compressed arm).
///
/// * `Borrowed` — a direct reference into an index: the zero-copy fast path
///   for exact-term lookups against a single shard.
/// * `Compressed` — a direct reference into a sealed shard's
///   block-compressed postings; evaluated through cursors, decoded only when
///   a result must materialise.
/// * `Shared` — an `Arc`-counted merge result, used by batch memos so that
///   every query of a batch reuses one materialised list.
/// * `Owned` — a freshly merged list nobody else holds yet.
#[derive(Debug, Clone)]
pub enum Postings<'a> {
    /// A borrow straight out of an index structure.
    Borrowed(&'a PostingList),
    /// A borrow of a sealed shard's block-compressed list.
    Compressed(CompressedView<'a>),
    /// A merge result shared behind an `Arc` (cloning bumps the count).
    Shared(Arc<PostingList>),
    /// A merge result owned by the caller.
    Owned(PostingList),
}

impl<'a> Postings<'a> {
    /// An empty posting list that borrows a static empty instance (no
    /// allocation).
    #[must_use]
    pub fn empty() -> Postings<'static> {
        Postings::Borrowed(PostingList::empty_ref())
    }

    /// The union of any number of borrowed lists, staying borrowed for zero
    /// or one inputs and materialising a k-way merge otherwise.
    #[must_use]
    pub fn union_of(lists: Vec<&'a PostingList>) -> Postings<'a> {
        match lists.as_slice() {
            [] => Postings::empty(),
            [only] => Postings::Borrowed(only),
            _ => {
                let views: Vec<PostingView<'_>> = lists.iter().map(|list| list.as_view()).collect();
                let mut out = Vec::new();
                union_into(&views, &mut out);
                Postings::Owned(PostingList::from_sorted(out))
            }
        }
    }

    /// The union of any number of compressed lists, staying a zero-copy
    /// `Compressed` borrow for one input and streaming a k-way cursor merge
    /// otherwise (each block decoded exactly once).
    #[must_use]
    pub fn union_of_compressed(lists: Vec<CompressedView<'a>>) -> Postings<'a> {
        match lists.as_slice() {
            [] => Postings::empty(),
            [only] => Postings::Compressed(*only),
            _ => {
                let cursors: Vec<PostingsCursor<'_>> =
                    lists.iter().map(|cp| PostingsCursor::Block(cp.cursor())).collect();
                let mut out = Vec::new();
                union_cursors_into(cursors, &mut out);
                Postings::Owned(PostingList::from_sorted(out))
            }
        }
    }

    /// Borrows the underlying uncompressed list.
    ///
    /// # Panics
    ///
    /// Panics for the `Compressed` arm, which has no materialised id slice to
    /// borrow — evaluate through [`Postings::cursor`] or materialise with
    /// [`Postings::into_owned`] instead.
    #[must_use]
    pub fn list(&self) -> &PostingList {
        match self {
            Postings::Borrowed(list) => list,
            Postings::Shared(list) => list,
            Postings::Owned(list) => list,
            Postings::Compressed(_) => {
                panic!("compressed postings have no borrowed list; use cursor() or into_owned()")
            }
        }
    }

    /// A borrowed view of the ids (same restriction as [`Postings::list`]).
    ///
    /// # Panics
    ///
    /// Panics for the `Compressed` arm.
    #[must_use]
    pub fn view(&self) -> PostingView<'_> {
        self.list().as_view()
    }

    /// A borrowed view of the ids when an uncompressed slice exists, `None`
    /// for block-compressed postings.
    #[must_use]
    pub fn try_view(&self) -> Option<PostingView<'_>> {
        match self {
            Postings::Compressed(_) => None,
            other => Some(other.list().as_view()),
        }
    }

    /// A cursor over the ids, whatever the representation: the uniform way
    /// the query evaluator walks, seeks and intersects postings.
    #[must_use]
    pub fn cursor(&self) -> PostingsCursor<'_> {
        match self {
            Postings::Compressed(cp) => PostingsCursor::Block(cp.cursor()),
            other => PostingsCursor::Slice(SliceCursor::new(other.list().doc_ids())),
        }
    }

    /// Number of files in the list.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Postings::Compressed(cp) => cp.len(),
            other => other.list().len(),
        }
    }

    /// Returns `true` when the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every id into `out` (cleared first): the single-term result
    /// path — a borrowed list copies, a compressed list decodes exactly once.
    pub fn copy_into(&self, out: &mut Vec<FileId>) {
        match self {
            Postings::Compressed(cp) => cp.decode_into(out),
            other => {
                out.clear();
                out.extend_from_slice(other.list().doc_ids());
            }
        }
    }

    /// Converts into an owned [`PostingList`], cloning (or decoding) only
    /// when the ids are not already exclusively owned.
    #[must_use]
    pub fn into_owned(self) -> PostingList {
        match self {
            Postings::Borrowed(list) => list.clone(),
            Postings::Compressed(cp) => cp.to_list(),
            Postings::Shared(list) => Arc::try_unwrap(list).unwrap_or_else(|arc| (*arc).clone()),
            Postings::Owned(list) => list,
        }
    }

    /// Converts the `Owned` variant into `Shared` so later clones bump an
    /// `Arc` instead of copying the ids; borrows (compressed or not) pass
    /// through untouched.
    #[must_use]
    pub fn into_shared(self) -> Postings<'a> {
        match self {
            Postings::Owned(list) => Postings::Shared(Arc::new(list)),
            other => other,
        }
    }
}

/// A [`PostingCursor`] over either representation a [`Postings`] can hold:
/// the query evaluator's set operations take these, so raw slices, memoized
/// merges and block-compressed lists all evaluate through one code path.
#[derive(Debug, Clone)]
pub enum PostingsCursor<'a> {
    /// Galloping cursor over an uncompressed sorted slice.
    Slice(SliceCursor<'a>),
    /// Skip-aware cursor over block-compressed postings.
    Block(BlockCursor<'a>),
}

impl PostingCursor for PostingsCursor<'_> {
    fn current(&self) -> Option<FileId> {
        match self {
            PostingsCursor::Slice(c) => c.current(),
            PostingsCursor::Block(c) => c.current(),
        }
    }

    fn advance(&mut self) {
        match self {
            PostingsCursor::Slice(c) => c.advance(),
            PostingsCursor::Block(c) => c.advance(),
        }
    }

    fn seek(&mut self, target: FileId) -> Option<FileId> {
        match self {
            PostingsCursor::Slice(c) => c.seek(target),
            PostingsCursor::Block(c) => c.seek(target),
        }
    }

    fn len(&self) -> usize {
        match self {
            PostingsCursor::Slice(c) => c.len(),
            PostingsCursor::Block(c) => c.len(),
        }
    }
}

/// Writes the intersection of two cursors into `out` (cleared first).
///
/// Two uncompressed cursors fall back to the tuned slice path (linear merge
/// or gallop); any pair involving a compressed side leapfrogs through
/// `seek`, so a skewed `AND` skips whole blocks of the longer list without
/// decoding them.
pub fn intersect_cursors_into(a: PostingsCursor<'_>, b: PostingsCursor<'_>, out: &mut Vec<FileId>) {
    match (a, b) {
        (PostingsCursor::Slice(a), PostingsCursor::Slice(b)) => {
            PostingView::new(a.remaining()).intersect_into(PostingView::new(b.remaining()), out);
        }
        (mut a, mut b) => {
            out.clear();
            leapfrog_intersect(&mut a, &mut b, out);
        }
    }
}

fn leapfrog_intersect<A: PostingCursor, B: PostingCursor>(
    a: &mut A,
    b: &mut B,
    out: &mut Vec<FileId>,
) {
    let (Some(mut x), Some(mut y)) = (a.current(), b.current()) else { return };
    loop {
        match x.cmp(&y) {
            std::cmp::Ordering::Equal => {
                out.push(x);
                a.advance();
                b.advance();
                match (a.current(), b.current()) {
                    (Some(nx), Some(ny)) => {
                        x = nx;
                        y = ny;
                    }
                    _ => return,
                }
            }
            std::cmp::Ordering::Less => match a.seek(y) {
                Some(nx) => x = nx,
                None => return,
            },
            std::cmp::Ordering::Greater => match b.seek(x) {
                Some(ny) => y = ny,
                None => return,
            },
        }
    }
}

/// Writes `a` minus `b` into `out` (cleared first): every id of `a` that does
/// not occur in `b`.  `b` is only ever `seek`-ed forward, so compressed
/// blocks of `b` that cannot contain ids of `a` are never decoded.
pub fn difference_cursors_into(
    a: PostingsCursor<'_>,
    b: PostingsCursor<'_>,
    out: &mut Vec<FileId>,
) {
    match (a, b) {
        (PostingsCursor::Slice(a), PostingsCursor::Slice(b)) => {
            PostingView::new(a.remaining()).difference_into(PostingView::new(b.remaining()), out);
        }
        (mut a, mut b) => {
            out.clear();
            while let Some(x) = a.current() {
                match b.seek(x) {
                    Some(y) if y == x => {}
                    _ => out.push(x),
                }
                a.advance();
            }
        }
    }
}

/// Writes the k-way union of `cursors` into `out` (cleared first).  All-slice
/// inputs reuse the run-consuming heap merge of [`union_into`]; any
/// compressed input streams through a cursor heap, decoding each block
/// exactly once.
pub fn union_cursors_into(cursors: Vec<PostingsCursor<'_>>, out: &mut Vec<FileId>) {
    out.clear();
    if cursors.iter().all(|c| matches!(c, PostingsCursor::Slice(_))) {
        let views: Vec<PostingView<'_>> = cursors
            .iter()
            .map(|c| match c {
                PostingsCursor::Slice(s) => PostingView::new(s.remaining()),
                PostingsCursor::Block(_) => unreachable!("all slices checked above"),
            })
            .collect();
        union_into(&views, out);
        return;
    }
    let mut cursors = cursors;
    let mut heap: BinaryHeap<Reverse<(FileId, usize)>> = BinaryHeap::with_capacity(cursors.len());
    for (i, cursor) in cursors.iter().enumerate() {
        if let Some(id) = cursor.current() {
            heap.push(Reverse((id, i)));
        }
    }
    while let Some(Reverse((id, i))) = heap.pop() {
        if out.last().copied() != Some(id) {
            out.push(id);
        }
        let cursor = &mut cursors[i];
        cursor.advance();
        if let Some(next) = cursor.current() {
            heap.push(Reverse((next, i)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(v: &[u32]) -> Vec<FileId> {
        v.iter().map(|&i| FileId(i)).collect()
    }

    fn view_of(v: &[FileId]) -> PostingView<'_> {
        PostingView::new(v)
    }

    #[test]
    fn view_basics() {
        let backing = ids(&[1, 4, 9]);
        let view = view_of(&backing);
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert!(view.contains(FileId(4)));
        assert!(!view.contains(FileId(5)));
        assert_eq!(view.iter().collect::<Vec<_>>(), backing);
        assert_eq!(view.doc_ids(), backing.as_slice());
        assert_eq!(view.to_list().doc_ids(), backing.as_slice());
        assert!(PostingView::default().is_empty());
    }

    #[test]
    fn intersect_into_balanced_and_skewed() {
        let a = ids(&[1, 2, 4, 8, 16]);
        let b: Vec<FileId> = (0..200).map(FileId).collect();
        let mut out = Vec::new();
        // Skewed: |b| / |a| >= GALLOP_RATIO, so this exercises the gallop.
        view_of(&a).intersect_into(view_of(&b), &mut out);
        assert_eq!(out, a);
        // Commuted order hits the same path.
        view_of(&b).intersect_into(view_of(&a), &mut out);
        assert_eq!(out, a);
        // Balanced: linear merge.
        let c = ids(&[2, 3, 4, 9]);
        view_of(&a).intersect_into(view_of(&c), &mut out);
        assert_eq!(out, ids(&[2, 4]));
        // Empty input clears the output buffer.
        view_of(&a).intersect_into(PostingView::default(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn gallop_finds_matches_at_probe_boundaries() {
        // Regression shape: the probe hit itself may be the match, so the
        // binary-search window must include it.
        let small = ids(&[3]);
        let large = ids(&[0, 1, 2, 3, 10, 20, 30, 40, 50, 60]);
        let mut out = Vec::new();
        gallop_intersect(&small, &large, &mut out);
        assert_eq!(out, ids(&[3]));
        // Match exactly at the end of the large list.
        let small = ids(&[60]);
        out.clear();
        gallop_intersect(&small, &large, &mut out);
        assert_eq!(out, ids(&[60]));
    }

    #[test]
    fn difference_into_subtracts() {
        let a = ids(&[1, 2, 3, 4]);
        let b = ids(&[2, 4, 6]);
        let mut out = Vec::new();
        view_of(&a).difference_into(view_of(&b), &mut out);
        assert_eq!(out, ids(&[1, 3]));
        view_of(&b).difference_into(view_of(&a), &mut out);
        assert_eq!(out, ids(&[6]));
        view_of(&a).difference_into(PostingView::default(), &mut out);
        assert_eq!(out, a);
    }

    #[test]
    fn union_into_all_arities() {
        let mut out = vec![FileId(99)];
        union_into(&[], &mut out);
        assert!(out.is_empty());

        let a = ids(&[1, 5]);
        union_into(&[view_of(&a)], &mut out);
        assert_eq!(out, a);

        let b = ids(&[2, 5, 7]);
        union_into(&[view_of(&a), view_of(&b)], &mut out);
        assert_eq!(out, ids(&[1, 2, 5, 7]));

        let c = ids(&[0, 7, 9]);
        union_into(&[view_of(&a), view_of(&b), view_of(&c)], &mut out);
        assert_eq!(out, ids(&[0, 1, 2, 5, 7, 9]));
    }

    #[test]
    fn postings_variants_share_one_api() {
        let owned = PostingList::from_ids(ids(&[1, 2, 3]));
        let borrowed = Postings::Borrowed(&owned);
        assert_eq!(borrowed.len(), 3);
        assert!(!borrowed.is_empty());
        assert_eq!(borrowed.view().doc_ids(), owned.doc_ids());
        assert_eq!(borrowed.clone().into_owned(), owned);

        let shared = Postings::Owned(owned.clone()).into_shared();
        assert!(matches!(shared, Postings::Shared(_)));
        let again = shared.clone();
        assert_eq!(again.into_owned(), owned);
        assert_eq!(shared.into_owned(), owned);
        // Borrowed postings pass through into_shared untouched.
        assert!(matches!(Postings::Borrowed(&owned).into_shared(), Postings::Borrowed(_)));

        assert!(Postings::empty().is_empty());
        assert_eq!(Postings::empty().len(), 0);
    }

    #[test]
    fn union_of_stays_borrowed_when_it_can() {
        let a = PostingList::from_ids(ids(&[1, 3]));
        let b = PostingList::from_ids(ids(&[2, 3]));
        assert!(matches!(Postings::union_of(vec![]), Postings::Borrowed(_)));
        assert!(matches!(Postings::union_of(vec![&a]), Postings::Borrowed(_)));
        let merged = Postings::union_of(vec![&a, &b]);
        assert!(matches!(merged, Postings::Owned(_)));
        assert_eq!(merged.into_owned().doc_ids(), ids(&[1, 2, 3]).as_slice());
    }

    proptest! {
        /// Galloping/linear intersection agrees with the naive owned
        /// implementation on arbitrary inputs, in both argument orders.
        #[test]
        fn intersect_matches_naive(a in proptest::collection::vec(0u32..500, 0..300),
                                   b in proptest::collection::vec(0u32..500, 0..40)) {
            let pa = PostingList::from_ids(a.iter().map(|&i| FileId(i)));
            let pb = PostingList::from_ids(b.iter().map(|&i| FileId(i)));
            let naive = pa.intersect(&pb);
            let mut out = Vec::new();
            pa.as_view().intersect_into(pb.as_view(), &mut out);
            prop_assert_eq!(out.as_slice(), naive.doc_ids());
            pb.as_view().intersect_into(pa.as_view(), &mut out);
            prop_assert_eq!(out.as_slice(), naive.doc_ids());
        }

        /// The k-way heap union agrees with folding `union_with` pairwise.
        #[test]
        fn kway_union_matches_pairwise_fold(
            lists in proptest::collection::vec(
                proptest::collection::vec(0u32..300, 0..60), 0..8)
        ) {
            let owned: Vec<PostingList> =
                lists.iter().map(|l| PostingList::from_ids(l.iter().map(|&i| FileId(i)))).collect();
            let mut folded = PostingList::new();
            for list in &owned {
                folded.union_with(list);
            }
            let views: Vec<PostingView<'_>> = owned.iter().map(PostingList::as_view).collect();
            let mut out = Vec::new();
            union_into(&views, &mut out);
            prop_assert_eq!(out.as_slice(), folded.doc_ids());
        }

        /// difference_into agrees with the naive owned difference.
        #[test]
        fn difference_matches_naive(a in proptest::collection::vec(0u32..300, 0..100),
                                    b in proptest::collection::vec(0u32..300, 0..100)) {
            let pa = PostingList::from_ids(a.iter().map(|&i| FileId(i)));
            let pb = PostingList::from_ids(b.iter().map(|&i| FileId(i)));
            let naive = pa.difference(&pb);
            let mut out = Vec::new();
            pa.as_view().difference_into(pb.as_view(), &mut out);
            prop_assert_eq!(out.as_slice(), naive.doc_ids());
        }
    }
}
