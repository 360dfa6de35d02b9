//! Posting lists.
//!
//! A posting list records which files contain a given term, and how often.
//! It is the build side's accumulator: extractors append to it file by file,
//! the join stage unions it, the seal reads it once in id order.  So it is
//! kept the way it will be stored — one compressed, append-only byte stream
//! per term — and costs about what its segment entry will.
//!
//! # Stream format
//!
//! Postings are in ascending id order, each a pair of LEB128 varints:
//!
//! ```text
//! gap  = id − previous id   (the first posting's gap is its id)
//! tf   = occurrences of the term in the file, ≥ 1
//! ```
//!
//! Varints are written minimally, so a set of `(id, tf)` pairs has exactly
//! one encoding and byte equality is set equality.
//!
//! # Out-of-order adds
//!
//! An id larger than every stored one is a few byte pushes.  Work stealing,
//! dedicated updaters and reclaimed leases deliver ids a few files late, and
//! a large straggler arrives hundreds of files late; such an add costs
//! **O(distance from the end)**, never O(list).  LEB128 can be walked
//! backwards — a byte below `0x80` ends a varint — so the add steps back from
//! the last posting until it finds its slot, splices its pair in and rewrites
//! the one gap after it.  Nothing is decoded into a scratch and nothing is
//! re-encoded.

use std::cmp::Ordering;
use std::ops::Range;

use crate::doc_table::FileId;
use crate::varint::{read_lenient, write_varint};

/// A sorted, duplicate-free list of the files containing one term, with the
/// term's frequency in each.
#[derive(Debug, Clone, Default)]
pub struct PostingList {
    /// `(gap, tf)` varint pairs in ascending id order.
    data: Vec<u8>,
    len: u32,
    /// The largest id; 0 while the list is empty, so that the first gap is
    /// the first id.
    last: u32,
}

impl PartialEq for PostingList {
    /// Set equality over `(id, tf)` pairs: the encoding is canonical, so the
    /// streams decide.
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl Eq for PostingList {}

/// Where the varint that ends just before `end` starts.
fn varint_start(data: &[u8], end: usize) -> usize {
    let mut start = end - 1;
    while start > 0 && data[start - 1] >= 0x80 {
        start -= 1;
    }
    start
}

/// The varint at `pos`.
fn varint_at(data: &[u8], mut pos: usize) -> u32 {
    read_lenient(data, &mut pos)
}

impl PostingList {
    /// Creates an empty posting list.
    #[must_use]
    pub fn new() -> Self {
        PostingList::default()
    }

    /// An empty list with room for `bytes` of stream (two a posting, for
    /// small gaps and frequencies).
    fn with_stream_capacity(bytes: usize) -> Self {
        PostingList { data: Vec::with_capacity(bytes), ..Self::default() }
    }

    /// Number of files in the list.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` when no file contains the term.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of heap the list holds (its stream, slack included).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity()
    }

    /// The file ids, ascending, decoded into a fresh vector.  Loops that
    /// visit many lists decode through [`PostingList::decode_into`] or
    /// [`PostingList::iter`] instead.
    #[must_use]
    pub fn doc_ids(&self) -> Vec<FileId> {
        self.iter().collect()
    }

    /// Iterates over the file ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = FileId> + '_ {
        self.iter_counted().map(|(id, _)| id)
    }

    /// Iterates over `(file id, term frequency)` pairs in ascending id order.
    pub fn iter_counted(&self) -> impl ExactSizeIterator<Item = (FileId, u32)> + '_ {
        Iter { data: &self.data, pos: 0, id: 0, left: self.len() }
    }

    /// Decodes the list into `ids` and the parallel `tfs` (both cleared
    /// first), so that a loop over many lists reuses two buffers.
    pub fn decode_into(&self, ids: &mut Vec<FileId>, tfs: &mut Vec<u32>) {
        ids.clear();
        tfs.clear();
        ids.reserve(self.len());
        tfs.reserve(self.len());
        for (id, tf) in self.iter_counted() {
            ids.push(id);
            tfs.push(tf);
        }
    }

    /// The term frequency recorded for `id`, or `None` when `id` is absent.
    /// Decodes up to `id`.
    #[must_use]
    pub fn tf_of(&self, id: FileId) -> Option<u32> {
        if id.as_u32() > self.last {
            return None;
        }
        self.iter_counted()
            .find(|&(found, _)| found >= id)
            .filter(|&(found, _)| found == id)
            .map(|p| p.1)
    }

    /// Returns `true` when `id` is in the list.  Decodes up to `id`.
    #[must_use]
    pub fn contains(&self, id: FileId) -> bool {
        self.tf_of(id).is_some()
    }

    /// Adds a file id with frequency 1; returns `true` when it was new.
    pub fn add(&mut self, id: FileId) -> bool {
        self.add_with_tf(id, 1)
    }

    /// Adds a file id with its term frequency; returns `true` when the id was
    /// new.  A duplicate id keeps the larger of the stored and offered
    /// frequencies, so adding is idempotent.
    ///
    /// See the module docs for what an id costs in and out of order.
    pub fn add_with_tf(&mut self, id: FileId, tf: u32) -> bool {
        self.upsert(id.as_u32(), tf.max(1), u32::max)
    }

    /// Records `count` more occurrences of the term in `id`; returns `true`
    /// when the id was new.  Unlike [`PostingList::add_with_tf`], a repeat
    /// of the id adds to its stored frequency.
    pub fn add_occurrences(&mut self, id: FileId, count: u32) -> bool {
        self.upsert(id.as_u32(), count.max(1), u32::saturating_add)
    }

    /// Appends a posting past the current end.
    fn push(&mut self, id: u32, tf: u32) {
        debug_assert!(self.len == 0 || id > self.last);
        write_varint(&mut self.data, u64::from(id - self.last));
        write_varint(&mut self.data, u64::from(tf));
        self.last = id;
        self.len += 1;
    }

    /// Inserts `(id, tf)`, or folds `tf` into the stored frequency of `id`
    /// with `combine(stored, tf)`.  Returns `true` when the id was new.
    fn upsert(&mut self, id: u32, tf: u32, combine: fn(u32, u32) -> u32) -> bool {
        if self.len == 0 || id > self.last {
            self.push(id, tf);
            return true;
        }
        // Step back posting by posting: `next` is the id of the posting whose
        // pair ends at `end`.
        let (mut next, mut end) = (self.last, self.data.len());
        loop {
            let tf_at = varint_start(&self.data, end);
            if id == next {
                let stored = varint_at(&self.data, tf_at);
                let folded = combine(stored, tf);
                if folded != stored {
                    self.replace(tf_at..end, &[folded]);
                }
                return false;
            }
            let gap_at = varint_start(&self.data, tf_at);
            let before = next - varint_at(&self.data, gap_at);
            // `before` is the previous posting's id, or the 0 the first gap
            // counts from — which is not a posting, so id 0 may go there.
            if gap_at == 0 || id > before {
                self.replace(gap_at..tf_at, &[id - before, tf, next - id]);
                self.len += 1;
                return true;
            }
            (next, end) = (before, gap_at);
        }
    }

    /// Replaces the bytes at `range` with the varints of `values` (three at
    /// most), moving the tail once and allocating only if the stream has to
    /// grow.
    fn replace(&mut self, range: Range<usize>, values: &[u32]) {
        let mut bytes = [0u8; 15];
        let mut len = 0;
        for &value in values {
            let mut value = value;
            while value >= 0x80 {
                bytes[len] = value as u8 | 0x80;
                value >>= 7;
                len += 1;
            }
            bytes[len] = value as u8;
            len += 1;
        }
        // A slice iterator reports its exact length, which is what lets
        // `splice` shift the tail in place instead of collecting it.
        self.data.splice(range, bytes[..len].iter().copied());
    }

    /// The smallest id (the first gap) of a list that is not empty.
    fn first(&self) -> u32 {
        varint_at(&self.data, 0)
    }

    /// Appends the postings `other` holds from byte `from` on — `count` of
    /// them, the first with id `first`, the last with id `last`, every one
    /// past this list's end — as a byte copy under one rewritten gap.
    fn append_stream(&mut self, other: &[u8], from: usize, first: u32, count: u32, last: u32) {
        debug_assert!(self.len == 0 || first > self.last);
        let mut after_gap = from;
        read_lenient(other, &mut after_gap);
        write_varint(&mut self.data, u64::from(first - self.last));
        self.data.extend_from_slice(&other[after_gap..]);
        self.len += count;
        self.last = last;
    }

    /// Merges `other` into `self` (set union). Linear in the combined length.
    /// A file present in both lists keeps the larger term frequency.
    pub fn union_with(&mut self, other: &PostingList) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.clone_from(other);
            return;
        }
        // Disjoint-range fast paths: shards and join stages often own
        // contiguous file-id ranges, so one list sits entirely before the
        // other and the streams are concatenated, not merged.
        let other_first = other.first();
        if self.last < other_first {
            self.append_stream(&other.data, 0, other_first, other.len, other.last);
            return;
        }
        let first = self.first();
        if other.last < first {
            let mut joined = other.clone();
            joined.data.reserve(self.data.len());
            joined.append_stream(&self.data, 0, first, self.len, self.last);
            *self = joined;
            return;
        }
        *self = self.merged(other);
    }

    /// The element-wise union of two overlapping lists.
    fn merged(&self, other: &PostingList) -> PostingList {
        let mut merged = PostingList::with_stream_capacity(self.data.len() + other.data.len());
        let (mut mine, mut theirs) =
            (self.iter_counted().peekable(), other.iter_counted().peekable());
        loop {
            let ((id, tf), advance) = match (mine.peek(), theirs.peek()) {
                (Some(&a), Some(&b)) => match a.0.cmp(&b.0) {
                    Ordering::Less => (a, (true, false)),
                    Ordering::Greater => (b, (false, true)),
                    Ordering::Equal => ((a.0, a.1.max(b.1)), (true, true)),
                },
                (Some(&a), None) => (a, (true, false)),
                (None, Some(&b)) => (b, (false, true)),
                (None, None) => break,
            };
            merged.push(id.as_u32(), tf);
            if advance.0 {
                mine.next();
            }
            if advance.1 {
                theirs.next();
            }
        }
        merged
    }

    /// Removes a file id from the list; returns `true` when it was present.
    pub fn remove(&mut self, id: FileId) -> bool {
        self.remove_all(&[id]) == 1
    }

    /// Removes every id of `ids` (sorted ascending) in one pass over the
    /// list; returns how many were present.  A list that holds none of them
    /// is decoded up to the largest of them and left as it is.
    ///
    /// Used by the incremental update when files are deleted or about to
    /// be re-indexed after a modification.
    pub fn remove_all(&mut self, ids: &[FileId]) -> usize {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        if ids.first().is_none_or(|first| first.as_u32() > self.last) {
            return 0;
        }
        let mut doomed = ids.iter().map(|id| id.as_u32()).peekable();
        // Started at the first removed posting: the bytes before it are kept
        // as they are.
        let mut kept: Option<PostingList> = None;
        let (mut pos, mut id) = (0, 0u32);
        let mut removed = 0;
        for seen in 0..self.len {
            let (start, before) = (pos, id);
            id += read_lenient(&self.data, &mut pos);
            let tf = read_lenient(&self.data, &mut pos);
            while doomed.next_if(|&next| next < id).is_some() {}
            match doomed.peek() {
                // Nothing left to remove: the rest of the stream is kept as
                // it is.
                None => {
                    if let Some(kept) = &mut kept {
                        kept.append_stream(&self.data, start, id, self.len - seen, self.last);
                    }
                    break;
                }
                Some(&next) if next == id => {
                    removed += 1;
                    kept.get_or_insert_with(|| PostingList {
                        data: self.data[..start].to_vec(),
                        len: seen,
                        last: before,
                    });
                }
                Some(_) => {
                    if let Some(kept) = &mut kept {
                        kept.push(id, tf);
                    }
                }
            }
        }
        if let Some(kept) = kept {
            *self = kept;
        }
        removed
    }
}

/// Decodes a stream front to back.
struct Iter<'a> {
    data: &'a [u8],
    pos: usize,
    id: u32,
    left: usize,
}

impl Iterator for Iter<'_> {
    type Item = (FileId, u32);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        self.id += read_lenient(self.data, &mut self.pos);
        let tf = read_lenient(self.data, &mut self.pos);
        Some((FileId(self.id), tf))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl FromIterator<(FileId, u32)> for PostingList {
    /// Collects `(id, tf)` pairs; in ascending id order (what segment loading
    /// and decoding produce) every pair is an append.
    fn from_iter<I: IntoIterator<Item = (FileId, u32)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut list = PostingList::with_stream_capacity(iter.size_hint().0 * 2);
        for (id, tf) in iter {
            list.add_with_tf(id, tf);
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PostingList {
        /// A list from file ids in any order: sorted and de-duplicated once,
        /// then appended.  The tests' shorthand; production builds lists by
        /// `add` or from `(id, tf)` pairs.
        fn from_ids<I: IntoIterator<Item = FileId>>(ids: I) -> Self {
            let mut ids: Vec<FileId> = ids.into_iter().collect();
            ids.sort_unstable();
            ids.dedup();
            ids.into_iter().map(|id| (id, 1)).collect()
        }
    }
    use proptest::prelude::*;

    fn ids(v: &[u32]) -> Vec<FileId> {
        v.iter().map(|&i| FileId(i)).collect()
    }

    fn counted(pairs: &[(u32, u32)]) -> PostingList {
        pairs.iter().map(|&(id, tf)| (FileId(id), tf)).collect()
    }

    fn pairs(list: &PostingList) -> Vec<(u32, u32)> {
        list.iter_counted().map(|(id, tf)| (id.as_u32(), tf)).collect()
    }

    #[test]
    fn add_keeps_sorted_unique() {
        let mut p = PostingList::new();
        assert!(p.add(FileId(5)));
        assert!(p.add(FileId(2)));
        assert!(!p.add(FileId(5)));
        assert!(p.add(FileId(9)));
        assert_eq!(p.doc_ids(), ids(&[2, 5, 9]));
        assert_eq!(p.len(), 3);
        assert!(p.contains(FileId(2)));
        assert!(!p.contains(FileId(3)));
        // Id 0 goes in front of everything, the first posting included.
        assert!(p.add(FileId(0)));
        assert!(!p.add(FileId(0)));
        assert_eq!(p.doc_ids(), ids(&[0, 2, 5, 9]));
    }

    #[test]
    fn append_in_order_fast_path() {
        let mut p = PostingList::new();
        for i in 0..1000 {
            assert!(p.add(FileId(i)));
        }
        assert_eq!(p.len(), 1000);
        assert!(!p.add(FileId(999)));
        assert!(p.heap_bytes() < 4 * 1000, "two bytes a posting plus slack");
    }

    #[test]
    fn late_ids_are_spliced_in_across_varint_widths() {
        // Gaps and frequencies of one, two and three bytes on either side of
        // the slot, so that stepping back has continuation bytes to cross.
        let mut p = counted(&[(3, 1), (200, 300), (20_000, 1), (2_200_000, 70_000)]);
        assert!(p.add_with_tf(FileId(2_100_000), 129));
        assert!(p.add_with_tf(FileId(100), 1));
        assert!(p.add_with_tf(FileId(19_999), 16_384));
        assert!(!p.add_with_tf(FileId(200), 2), "the larger stored frequency stays");
        assert!(!p.add_with_tf(FileId(20_000), 128), "a wider frequency is spliced in");
        let expected = [
            (3, 1),
            (100, 1),
            (200, 300),
            (19_999, 16_384),
            (20_000, 128),
            (2_100_000, 129),
            (2_200_000, 70_000),
        ];
        assert_eq!(pairs(&p), expected);
        assert_eq!(p, counted(&expected));
    }

    #[test]
    fn remove_deletes_only_the_given_id() {
        let mut p = PostingList::from_ids(ids(&[1, 3, 5]));
        assert!(p.remove(FileId(3)));
        assert_eq!(p.doc_ids(), ids(&[1, 5]));
        assert!(!p.remove(FileId(3)));
        assert!(!p.remove(FileId(99)));
        assert!(p.remove(FileId(1)));
        assert!(p.remove(FileId(5)));
        assert!(p.is_empty());
        assert_eq!(p, PostingList::new());
        assert!(p.add(FileId(0)), "an emptied list starts over");
    }

    #[test]
    fn remove_all_filters_in_one_pass() {
        let mut p = counted(&[(1, 2), (3, 1), (5, 9), (200, 1), (900, 4)]);
        assert_eq!(p.remove_all(&ids(&[0, 3, 4, 200, 1000])), 2);
        assert_eq!(pairs(&p), [(1, 2), (5, 9), (900, 4)]);
        assert_eq!(p.remove_all(&ids(&[901])), 0);
        assert_eq!(p.remove_all(&ids(&[1, 5, 900])), 3);
        assert!(p.is_empty());
    }

    #[test]
    fn from_ids_sorts_and_dedups() {
        let p = PostingList::from_ids(ids(&[3, 1, 3, 2, 1]));
        assert_eq!(p.doc_ids(), ids(&[1, 2, 3]));
    }

    #[test]
    fn union_with_merges_sets() {
        let mut a = PostingList::from_ids(ids(&[1, 3, 5]));
        let b = PostingList::from_ids(ids(&[2, 3, 6]));
        a.union_with(&b);
        assert_eq!(a.doc_ids(), ids(&[1, 2, 3, 5, 6]));
    }

    #[test]
    fn union_with_disjoint_ranges_extends_in_place() {
        // Append: every id of `other` is past the end of `self`.
        let mut a = PostingList::from_ids(ids(&[1, 2, 3]));
        a.union_with(&PostingList::from_ids(ids(&[5, 6])));
        assert_eq!(a.doc_ids(), ids(&[1, 2, 3, 5, 6]));
        assert_eq!(a, PostingList::from_ids(ids(&[1, 2, 3, 5, 6])));
        // Prepend: every id of `other` is before the start of `self`.
        let mut b = PostingList::from_ids(ids(&[10, 20]));
        b.union_with(&PostingList::from_ids(ids(&[1, 2])));
        assert_eq!(b.doc_ids(), ids(&[1, 2, 10, 20]));
        assert!(b.add(FileId(30)), "the end of the joined stream is where appends go");
        assert_eq!(b, PostingList::from_ids(ids(&[1, 2, 10, 20, 30])));
        // Touching boundary (equal edge ids) must still merge correctly.
        let mut c = PostingList::from_ids(ids(&[1, 5]));
        c.union_with(&PostingList::from_ids(ids(&[5, 9])));
        assert_eq!(c.doc_ids(), ids(&[1, 5, 9]));
    }

    #[test]
    fn from_sorted_and_views() {
        let list = PostingList::from_ids(ids(&[2, 4, 6]));
        assert_eq!(list.doc_ids(), ids(&[2, 4, 6]));
        assert_eq!(list.iter().collect::<Vec<_>>(), ids(&[2, 4, 6]));
        assert_eq!(list.iter_counted().len(), 3);
        assert_eq!(list.len(), 3);
        let (mut into_ids, mut into_tfs) = (ids(&[7]), vec![7]);
        list.decode_into(&mut into_ids, &mut into_tfs);
        assert_eq!((into_ids, into_tfs), (ids(&[2, 4, 6]), vec![1, 1, 1]));
        assert!(PostingList::new().doc_ids().is_empty());
    }

    #[test]
    fn union_with_empty_cases() {
        let mut a = PostingList::new();
        let b = PostingList::from_ids(ids(&[1, 2]));
        a.union_with(&b);
        assert_eq!(a.doc_ids(), ids(&[1, 2]));
        let mut c = a.clone();
        c.union_with(&PostingList::new());
        assert_eq!(c, a);
    }

    #[test]
    fn tf_tracking_roundtrip() {
        let mut p = PostingList::new();
        assert!(p.add_with_tf(FileId(1), 3));
        assert!(p.add_with_tf(FileId(0), 1));
        assert!(p.add_with_tf(FileId(2), 2));
        assert_eq!(p.tf_of(FileId(1)), Some(3));
        assert_eq!(p.tf_of(FileId(0)), Some(1));
        assert_eq!(p.tf_of(FileId(9)), None);
        // A duplicate id keeps the larger frequency.
        assert!(!p.add_with_tf(FileId(2), 7));
        assert_eq!(p.tf_of(FileId(2)), Some(7));
        assert_eq!(pairs(&p), [(0, 1), (1, 3), (2, 7)]);
    }

    #[test]
    fn occurrences_add_up() {
        let mut p = PostingList::new();
        assert!(p.add_occurrences(FileId(4), 1));
        assert!(p.add_occurrences(FileId(7), 2));
        assert!(!p.add_occurrences(FileId(4), 1), "a repeat is the same posting");
        assert!(!p.add_occurrences(FileId(7), 126), "and may outgrow its varint");
        assert!(!p.add_occurrences(FileId(7), u32::MAX), "up to saturation");
        assert_eq!(pairs(&p), [(4, 2), (7, u32::MAX)]);
    }

    #[test]
    fn tf_canonical_form() {
        // One set of postings has one encoding, whichever way it was built:
        // frequencies of 1 given or implied, in order or not, through a
        // union or a removal.
        let plain = PostingList::from_ids(ids(&[1, 2]));
        assert_eq!(counted(&[(1, 1), (2, 1)]), plain);
        assert_eq!(counted(&[(2, 0), (1, 1)]), plain, "a frequency is at least 1");

        let mut p = counted(&[(1, 1), (2, 5), (3, 1)]);
        assert_ne!(p, PostingList::from_ids(ids(&[1, 2, 3])));
        p.remove(FileId(3));
        p.remove(FileId(2));
        p.add(FileId(2));
        assert_eq!(p, plain);
        let mut q = PostingList::from_ids(ids(&[2]));
        q.union_with(&PostingList::from_ids(ids(&[1])));
        assert_eq!(q, plain);
    }

    #[test]
    fn union_keeps_larger_tf() {
        let mut a = counted(&[(1, 2), (3, 1)]);
        a.union_with(&counted(&[(1, 1), (2, 4)]));
        assert_eq!(pairs(&a), [(1, 2), (2, 4), (3, 1)]);

        // Disjoint fast paths preserve frequencies on both sides.
        let mut c = counted(&[(1, 3)]);
        c.union_with(&PostingList::from_ids(ids(&[5, 6])));
        assert_eq!(pairs(&c), [(1, 3), (5, 1), (6, 1)]);
        let mut d = PostingList::from_ids(ids(&[10]));
        d.union_with(&counted(&[(2, 9)]));
        assert_eq!(pairs(&d), [(2, 9), (10, 1)]);
    }

    #[test]
    fn iterator_and_collect() {
        let p = PostingList::from_ids(ids(&[4, 1, 4]));
        let back: Vec<FileId> = p.iter().collect();
        assert_eq!(back, ids(&[1, 4]));
    }

    proptest! {
        /// union_with agrees with the naive set implementation.
        #[test]
        fn set_semantics(a in proptest::collection::vec(0u32..200, 0..100),
                         b in proptest::collection::vec(0u32..200, 0..100)) {
            use std::collections::BTreeSet;
            let mut union = PostingList::from_ids(a.iter().map(|&i| FileId(i)));
            union.union_with(&PostingList::from_ids(b.iter().map(|&i| FileId(i))));
            let expected: BTreeSet<u32> = a.iter().chain(&b).copied().collect();
            let union: Vec<u32> = union.iter().map(FileId::as_u32).collect();
            prop_assert_eq!(union, expected.into_iter().collect::<Vec<u32>>());
        }

        /// add() produces the same set as from_ids() regardless of order.
        #[test]
        fn add_matches_from_ids(xs in proptest::collection::vec(0u32..500, 0..200)) {
            let mut incremental = PostingList::new();
            for &x in &xs {
                incremental.add(FileId(x));
            }
            let bulk = PostingList::from_ids(xs.iter().map(|&x| FileId(x)));
            prop_assert_eq!(incremental, bulk);
        }
    }
}
