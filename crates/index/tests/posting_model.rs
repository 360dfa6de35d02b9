//! `PostingList` against a `BTreeMap<FileId, u32>` model.
//!
//! The list is a byte stream that is appended to, spliced into from the end,
//! concatenated and filtered; the model is a map.  Under any interleaving of
//! adds (in order, a few files late, far late, at random, repeated at other
//! frequencies), unions, removals and clones, every reader of the list agrees
//! with the map after every step — and `==` is set equality, whichever way
//! the bytes came to be.

use std::collections::BTreeMap;

use dsearch_index::{FileId, PostingList};
use proptest::prelude::*;

/// The order ids arrive in, as the build delivers them.
#[derive(Debug, Clone, Copy)]
enum Arrival {
    /// One extractor over a contiguous slice of files.
    Ascending,
    /// Work stealing and dedicated updaters: ids up to 8 places late.
    Window,
    /// A large file that finishes hundreds of files after it was handed out.
    Straggler,
    /// No order at all.
    Random,
}

const ARRIVALS: [Arrival; 4] =
    [Arrival::Ascending, Arrival::Window, Arrival::Straggler, Arrival::Random];

/// Frequencies of one, two and three varint bytes, mostly 1.
fn mixed_tf(raw: u32) -> u32 {
    match raw % 8 {
        0..=3 => 1,
        4 | 5 => raw % 120 + 2,
        6 => raw % 16_000 + 128,
        _ => raw % 1_000_000 + 16_384,
    }
}

fn check(list: &PostingList, model: &BTreeMap<FileId, u32>, probes: &[u32]) {
    assert_eq!(list.len(), model.len());
    assert_eq!(list.is_empty(), model.is_empty());
    let decoded: Vec<(FileId, u32)> = list.iter_counted().collect();
    let expected: Vec<(FileId, u32)> = model.iter().map(|(&id, &tf)| (id, tf)).collect();
    assert_eq!(decoded, expected);
    assert_eq!(list.doc_ids(), model.keys().copied().collect::<Vec<_>>());
    let edges = [0, 1, u32::MAX];
    let stored = model.keys().map(|id| id.as_u32()).take(3);
    let largest = model.keys().next_back().map(|id| id.as_u32());
    for probe in probes.iter().copied().chain(edges).chain(stored).chain(largest) {
        for id in [probe.saturating_sub(1), probe, probe.saturating_add(1)].map(FileId) {
            assert_eq!(list.tf_of(id), model.get(&id).copied(), "tf_of({id:?})");
            assert_eq!(list.contains(id), model.contains_key(&id), "contains({id:?})");
        }
    }
    // Equal to the list built from the model front to back, and to its own
    // clone; unequal to the same list with one posting changed.
    let rebuilt: PostingList = model.iter().map(|(&id, &tf)| (id, tf)).collect();
    assert_eq!(list, &rebuilt);
    assert_eq!(&list.clone(), list);
    if let Some((&id, &tf)) = model.iter().next_back() {
        let mut other = rebuilt.clone();
        other.add_with_tf(id, tf + 1);
        assert_ne!(list, &other, "a different frequency is a different list");
        other.remove(id);
        assert_ne!(list, &other, "a missing posting is a different list");
    }
}

/// The posting `pick` selects from a non-empty model.
fn stored_id(model: &BTreeMap<FileId, u32>, pick: u32) -> Option<FileId> {
    model.keys().nth(pick as usize % model.len().max(1)).copied()
}

proptest! {
    #[test]
    fn every_reader_agrees_with_the_model_after_every_step(
        arrival in 0usize..4,
        // Gaps of one, two or three varint bytes.
        stride in 0usize..3,
        steps in proptest::collection::vec((0u32..16, 0u32..1_000_000, 0u32..4_000_000), 1..160),
    ) {
        let arrival = ARRIVALS[arrival];
        let stride = [1u32, 150, 17_000][stride];
        let mut list = PostingList::new();
        let mut model: BTreeMap<FileId, u32> = BTreeMap::new();
        // The next id an in-order add would deliver.
        let mut frontier = 0u32;
        for (kind, a, b) in steps {
            let mut probes = vec![a.wrapping_mul(stride)];
            match kind {
                // An add, in the run's arrival order.
                0..=7 => {
                    let place = match arrival {
                        Arrival::Ascending => frontier,
                        Arrival::Window => frontier + a % 8,
                        Arrival::Straggler if a % 12 == 0 => {
                            frontier.saturating_sub(300 + a % 600)
                        }
                        Arrival::Straggler => frontier,
                        Arrival::Random => a % 4_000,
                    };
                    frontier += 1 + a % 3;
                    // Now and then id 0, the one id the first gap's base
                    // could be mistaken for.
                    let place = if b % 64 == 63 { 0 } else { place * stride + a % stride };
                    let (id, tf) = (FileId(place), mixed_tf(b));
                    let new = list.add_with_tf(id, tf);
                    prop_assert_eq!(new, !model.contains_key(&id));
                    let stored = model.entry(id).or_insert(0);
                    *stored = (*stored).max(tf);
                    probes.push(id.as_u32());
                }
                // A repeat of a stored id: the larger frequency stays.
                8 | 9 => {
                    if let Some(id) = stored_id(&model, a) {
                        let tf = mixed_tf(b);
                        prop_assert!(!list.add_with_tf(id, tf));
                        let stored = model.get_mut(&id).unwrap();
                        *stored = (*stored).max(tf);
                        probes.push(id.as_u32());
                    }
                }
                // More occurrences in a stored (or new) file: they add up.
                10 => {
                    let id = stored_id(&model, a).filter(|_| b % 4 != 0).unwrap_or(FileId(a));
                    let count = mixed_tf(b);
                    prop_assert_eq!(list.add_occurrences(id, count), !model.contains_key(&id));
                    *model.entry(id).or_insert(0) += count;
                    probes.push(id.as_u32());
                }
                // A removal, of a stored id three times out of four.
                11 | 12 => {
                    let id = stored_id(&model, a).filter(|_| b % 4 != 0).unwrap_or(FileId(a));
                    prop_assert_eq!(list.remove(id), model.remove(&id).is_some());
                    probes.push(id.as_u32());
                }
                // A union: past the end, before the start, or across.
                13 | 14 => {
                    let count = b % 24;
                    let (first, last) = (
                        model.keys().next().map_or(0, |id| id.as_u32()),
                        model.keys().next_back().map_or(0, |id| id.as_u32()),
                    );
                    let start = match a % 3 {
                        0 => last + 1 + a % 200,
                        1 => first.saturating_sub(count * stride + a % 200 + 1),
                        _ => first + a % (last - first + 1),
                    };
                    let before_first = a % 3 == 1;
                    let other: BTreeMap<FileId, u32> = (0..count)
                        .map(|i| (start + i * (1 + (a + i) % stride), mixed_tf(b + i)))
                        .filter(|&(id, _)| !before_first || id < first)
                        .map(|(id, tf)| (FileId(id), tf))
                        .collect();
                    let other_list: PostingList = other.iter().map(|(&id, &tf)| (id, tf)).collect();
                    list.union_with(&other_list);
                    for (id, tf) in other {
                        let stored = model.entry(id).or_insert(0);
                        *stored = (*stored).max(tf);
                    }
                    probes.push(start);
                }
                // A clone takes over; the original is dropped.
                _ => {
                    let copy = list.clone();
                    list = copy;
                }
            }
            if let Some(last) = model.keys().next_back() {
                frontier = frontier.max(last.as_u32() / stride);
            }
            check(&list, &model, &probes);
        }
    }
}

#[test]
fn remove_all_agrees_with_one_removal_at_a_time() {
    let ids: Vec<FileId> = (0..3_000u32).map(|i| FileId(i * 7 % 4_001)).collect();
    let full: PostingList = ids.iter().map(|&id| (id, id.as_u32() % 5 + 1)).collect();
    let mut doomed: Vec<FileId> = (0..4_100u32).step_by(3).map(FileId).collect();
    doomed.sort_unstable();
    let mut one_pass = full.clone();
    let removed = one_pass.remove_all(&doomed);
    let mut one_by_one = full.clone();
    let expected = doomed.iter().filter(|&&id| one_by_one.remove(id)).count();
    assert_eq!(removed, expected);
    assert_eq!(one_pass, one_by_one);
    assert_eq!(one_pass.len(), full.len() - removed);
}
