//! Micro-benchmarks of the inverted-index building blocks.
//!
//! These isolate the costs the paper reasons about analytically: the price of
//! a shared lock per file versus per term, the cost of replica joins, and the
//! raw insert throughput of the index structure.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use dsearch::index::{FileId, InMemoryIndex, PostingList, SharedIndex};
use dsearch::text::Term;

fn word_lists(docs: u32, terms_per_doc: u32, vocab: u32) -> Vec<(FileId, Vec<Term>)> {
    (0..docs)
        .map(|d| {
            let terms = (0..terms_per_doc)
                .map(|k| {
                    Term::from(format!("w{:05}", (d.wrapping_mul(17).wrapping_add(k * 7)) % vocab))
                })
                .collect();
            (FileId(d), terms)
        })
        .collect()
}

fn bench_insert_paths(c: &mut Criterion) {
    let docs = word_lists(2_000, 30, 5_000);
    let mut group = c.benchmark_group("index_insert");
    group.sample_size(10);

    group.bench_function("private_index_en_bloc", |b| {
        b.iter_batched(
            || docs.clone(),
            |docs| {
                let mut index = InMemoryIndex::new();
                for (id, terms) in docs {
                    index.insert_file(id, terms);
                }
                black_box(index.posting_count())
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("shared_index_en_bloc", |b| {
        b.iter_batched(
            || docs.clone(),
            |docs| {
                let index = SharedIndex::new();
                for (id, terms) in docs {
                    index.insert_file(id, terms);
                }
                black_box(index.stats().postings)
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("shared_index_per_term", |b| {
        b.iter_batched(
            || docs.clone(),
            |docs| {
                let index = SharedIndex::new();
                for (id, terms) in docs {
                    for t in terms {
                        index.insert_occurrence(id, t);
                    }
                    index.note_file_done();
                }
                black_box(index.stats().postings)
            },
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

fn bench_posting_lists(c: &mut Criterion) {
    let mut group = c.benchmark_group("posting_lists");
    group.sample_size(20);

    let every = |step| (0..20_000).step_by(step).map(|id| (FileId(id), 1)).collect::<PostingList>();
    let (a, b_list) = (every(2), every(3));

    group.bench_function("union_20k", |bch| {
        bch.iter(|| {
            let mut union = a.clone();
            union.union_with(&b_list);
            black_box(union.len())
        });
    });
    // The out-of-order contract: an id that arrives 500 postings late is
    // spliced in from the end, whatever the length of the list before it.
    group.bench_function("add_500_late_into_10k", |bch| {
        bch.iter_batched(
            || a.clone(),
            |mut p| {
                for late in 0..100u32 {
                    p.add(FileId(19_001 - 2 * late));
                }
                black_box(p.len())
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("append_in_order_10k", |bch| {
        bch.iter(|| {
            let mut p = PostingList::new();
            for i in 0..10_000 {
                p.add(FileId(i));
            }
            black_box(p.len())
        });
    });
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_merge");
    group.sample_size(10);
    let docs = word_lists(4_000, 25, 4_000);
    let replicas: Vec<InMemoryIndex> = (0..4)
        .map(|r| {
            let mut idx = InMemoryIndex::new();
            for (id, terms) in docs.iter().filter(|(id, _)| id.as_usize() % 4 == r) {
                idx.insert_file(*id, terms.clone());
            }
            idx
        })
        .collect();

    group.bench_function("merge_from_4_replicas", |b| {
        b.iter_batched(
            || replicas.clone(),
            |replicas| {
                let mut acc = InMemoryIndex::new();
                for r in &replicas {
                    acc.merge_from(r);
                }
                black_box(acc.term_count())
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("absorb_4_replicas", |b| {
        b.iter_batched(
            || replicas.clone(),
            |replicas| {
                let mut iter = replicas.into_iter();
                let mut acc = iter.next().unwrap();
                for r in iter {
                    acc.absorb(r);
                }
                black_box(acc.term_count())
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_insert_paths, bench_posting_lists, bench_merge);
criterion_main!(benches);
