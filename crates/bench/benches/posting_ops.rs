//! Micro-benchmarks of posting-list set operations and end-to-end query
//! evaluation.
//!
//! The `posting_ops` group isolates the three primitives PR 3 rewrote:
//!
//! * **intersect** — the naive two-pointer merge (`PostingList::intersect`,
//!   which also allocates its result) against the borrowed
//!   `PostingView::intersect_into` path, at a skewed size ratio (where the
//!   view gallops) and a balanced one (where it merges linearly into a
//!   reused scratch buffer);
//! * **union** — folding `union_with` pairwise over many lists against the
//!   k-way heap merge `union_into`;
//! * **prefix** — the historical full-table scan against the sorted-
//!   dictionary range lookup.
//!
//! The `query_eval` group proves the end-to-end win: the pre-PR-3 evaluation
//! strategy (clone every posting list, intersect left-to-right in query
//! order) re-implemented here as the baseline, against
//! `SingleIndexSearcher::search`'s zero-copy, selectivity-ordered path and
//! (since PR 4) a sealed snapshot's block-compressed skip-seek path.
//!
//! PR 4 adds compressed counterparts to every primitive: `intersect` and
//! `union` over `BlockCursor`s (skip-seek through compressed blocks) next to
//! the borrowed-view numbers, so the cost/benefit of compression is measured
//! in the same group it changes.  Bytes/posting is reported by the
//! `bench_summary` binary (it is a size, not a time).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dsearch::index::{
    intersect_cursors_into, union_cursors_into, union_into, CompressedPostings, DocTable, FileId,
    InMemoryIndex, PostingList, PostingView, PostingsCursor,
};
use dsearch::query::{Query, QueryTerm, SearchBackend, SingleIndexSearcher};
use dsearch::server::IndexSnapshot;
use dsearch::text::Term;

fn list_of(range: impl Iterator<Item = u32>) -> PostingList {
    PostingList::from_ids(range.map(FileId))
}

fn bench_intersect(c: &mut Criterion) {
    let mut group = c.benchmark_group("posting_ops");
    group.sample_size(10);

    // Skewed: 100 ids spread across a 100k-id list — the galloping case.
    let small = list_of((0..100).map(|i| i * 1_000));
    let large = list_of(0..100_000);
    group.bench_function("intersect/naive/skewed_100_vs_100k", |b| {
        b.iter(|| black_box(small.intersect(&large).len()));
    });
    group.bench_function("intersect/gallop/skewed_100_vs_100k", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            small.as_view().intersect_into(large.as_view(), &mut out);
            black_box(out.len())
        });
    });

    // The same skewed shape over block-compressed lists: the cursor seeks
    // through the 100k-id list's skip table, decoding only the ~100 blocks
    // that can contain a match candidate.
    let small_compressed = CompressedPostings::from_list(&small);
    let large_compressed = CompressedPostings::from_list(&large);
    group.bench_function("intersect/block_skip_seek/skewed_100_vs_100k", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            intersect_cursors_into(
                PostingsCursor::Block(small_compressed.view().cursor()),
                PostingsCursor::Block(large_compressed.view().cursor()),
                &mut out,
            );
            black_box(out.len())
        });
    });

    // Balanced: two 10k lists with 50 % overlap — the linear-merge case,
    // where the win is the reused scratch buffer, not the gallop.
    let even = list_of((0..10_000).map(|i| i * 2));
    let all = list_of(0..10_000);
    group.bench_function("intersect/naive/balanced_10k_vs_10k", |b| {
        b.iter(|| black_box(even.intersect(&all).len()));
    });
    group.bench_function("intersect/gallop/balanced_10k_vs_10k", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            even.as_view().intersect_into(all.as_view(), &mut out);
            black_box(out.len())
        });
    });
    let even_compressed = CompressedPostings::from_list(&even);
    let all_compressed = CompressedPostings::from_list(&all);
    group.bench_function("intersect/block_leapfrog/balanced_10k_vs_10k", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            intersect_cursors_into(
                PostingsCursor::Block(even_compressed.view().cursor()),
                PostingsCursor::Block(all_compressed.view().cursor()),
                &mut out,
            );
            black_box(out.len())
        });
    });
    group.finish();
}

fn bench_union(c: &mut Criterion) {
    let mut group = c.benchmark_group("posting_ops");
    group.sample_size(10);

    // Interleaved lists, the shape a prefix expansion or cross-shard merge
    // produces.  Pairwise folding is O(total · k) — every fold step re-walks
    // the accumulated result — so the k-way merge pulls ahead as the fan-in
    // grows.
    // `block` controls how runny the ids are: 1 is fully interleaved (the
    // worst case for the heap's run optimisation), larger blocks mimic
    // shards owning contiguous file-id ranges.
    for (name, k, per_list, block) in
        [("16x2k", 16u32, 2_000u32, 1u32), ("128x250", 128, 250, 1), ("16x2k_runs", 16, 2_000, 100)]
    {
        let lists: Vec<PostingList> = (0..k)
            .map(|j| {
                list_of((0..per_list).map(move |i| {
                    let (run, off) = (i / block, i % block);
                    (run * k + j) * block + off
                }))
            })
            .collect();
        group.bench_function(format!("union/pairwise_fold/{name}"), |b| {
            b.iter(|| {
                let mut acc = PostingList::new();
                for list in &lists {
                    acc.union_with(list);
                }
                black_box(acc.len())
            });
        });
        group.bench_function(format!("union/kway_heap/{name}"), |b| {
            let views: Vec<PostingView<'_>> = lists.iter().map(PostingList::as_view).collect();
            let mut out = Vec::new();
            b.iter(|| {
                union_into(&views, &mut out);
                black_box(out.len())
            });
        });
        let compressed: Vec<CompressedPostings> =
            lists.iter().map(CompressedPostings::from_list).collect();
        group.bench_function(format!("union/block_cursor_heap/{name}"), |b| {
            let mut out = Vec::new();
            b.iter(|| {
                let cursors: Vec<PostingsCursor<'_>> =
                    compressed.iter().map(|cp| PostingsCursor::Block(cp.view().cursor())).collect();
                union_cursors_into(cursors, &mut out);
                black_box(out.len())
            });
        });
    }
    group.finish();
}

/// An index over a synthetic vocabulary: `docs` documents, each holding one
/// ubiquitous term, a handful of mid-frequency terms, and one rare term.
fn synthetic_index(docs: u32) -> (InMemoryIndex, DocTable) {
    let mut index = InMemoryIndex::new();
    let mut table = DocTable::new();
    for d in 0..docs {
        let id = table.insert(format!("doc{d:06}.txt"));
        let mut terms = vec![
            Term::from("common"),
            Term::from(format!("mid{:03}", d % 200)),
            Term::from(format!("rare{d:06}")),
        ];
        if d % 2 == 0 {
            terms.push(Term::from("even"));
        }
        index.insert_file(id, terms);
    }
    (index, table)
}

fn bench_prefix(c: &mut Criterion) {
    let mut group = c.benchmark_group("posting_ops");
    group.sample_size(10);

    let (mut index, _docs) = synthetic_index(20_000);
    // The historical full-table scan, exactly as prefix_postings used to run.
    let full_scan = |index: &InMemoryIndex, prefix: &str| {
        let mut out = PostingList::new();
        for (term, list) in index.iter() {
            if term.as_str().starts_with(prefix) {
                out.union_with(list);
            }
        }
        out
    };
    group.bench_function("prefix/full_scan/mid1", |b| {
        b.iter(|| black_box(full_scan(&index, "mid1").len()));
    });
    index.build_dictionary();
    group.bench_function("prefix/dictionary/mid1", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let lists = index.prefix_lists("mid1");
            let views: Vec<PostingView<'_>> = lists.iter().map(|l| l.as_view()).collect();
            union_into(&views, &mut out);
            black_box(out.len())
        });
    });
    group.finish();
}

/// The pre-PR-3 evaluation strategy: clone every posting list out of the
/// index and intersect in query order, allocating a fresh list per operator.
fn eval_cloned_left_to_right(index: &InMemoryIndex, query: &Query) -> usize {
    let mut total = 0usize;
    for group in query.groups() {
        let mut iter = group.required().iter();
        let Some(first) = iter.next() else { continue };
        let owned_lookup = |term: &QueryTerm| -> PostingList {
            match term {
                QueryTerm::Exact(t) => index.postings(t).cloned().unwrap_or_default(),
                QueryTerm::Prefix(p) => {
                    let mut out = PostingList::new();
                    for (term, list) in index.iter() {
                        if term.as_str().starts_with(p.as_str()) {
                            out.union_with(list);
                        }
                    }
                    out
                }
            }
        };
        let mut acc = owned_lookup(first);
        for term in iter {
            if acc.is_empty() {
                break;
            }
            acc = acc.intersect(&owned_lookup(term));
        }
        total += acc.len();
    }
    total
}

fn bench_query_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_eval");
    group.sample_size(10);

    let (mut index, docs) = synthetic_index(20_000);
    index.build_dictionary();
    let searcher = SingleIndexSearcher::new(&index, &docs);
    let queries: Vec<(&str, Query)> = [
        ("skewed_and", "rare012345 common"),
        ("three_term_and", "mid042 even common"),
        ("prefix", "mid04* even"),
        ("or_groups", "mid001 common OR mid002 even"),
    ]
    .into_iter()
    .map(|(name, raw)| (name, Query::parse(raw).expect("bench query parses")))
    .collect();

    // The same corpus sealed into a compressed serving snapshot: queries run
    // through block cursors (skip-seek on skewed ANDs, one decode for
    // single-term results) instead of borrowed slices.
    let snapshot = IndexSnapshot::from_index(index.clone(), docs.clone(), 1);

    for (name, query) in &queries {
        group.bench_function(format!("cloned_left_to_right/{name}"), |b| {
            b.iter(|| black_box(eval_cloned_left_to_right(&index, query)));
        });
        group.bench_function(format!("zero_copy/{name}"), |b| {
            b.iter(|| black_box(searcher.search(query).len()));
        });
        group.bench_function(format!("sealed_compressed/{name}"), |b| {
            b.iter(|| black_box(snapshot.search(query).len()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_intersect, bench_union, bench_prefix, bench_query_eval);
criterion_main!(benches);
