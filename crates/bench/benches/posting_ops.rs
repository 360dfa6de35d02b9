//! The query-evaluation layer in isolation: five query shapes through the
//! one evaluator (`dsearch::query::evaluate`) over one sealed shard, no
//! engine, no cache, no wire — the criterion counterpart of the repo
//! benchmark's `query.eval_{term,and,or,prefix,not}_ns`.
//!
//! Each shape runs as the engine runs it: BM25 (the constant scorer where
//! the shape cannot be scored), bounded at the default result limit.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dsearch::index::{DocTable, InMemoryIndex, SealedShard};
use dsearch::query::{evaluate, Query, Scorer};
use dsearch::text::Term;

/// An index over a synthetic vocabulary: `docs` documents, each holding one
/// ubiquitous term, a handful of mid-frequency terms, and one rare term.
fn synthetic_index(docs: u32) -> (InMemoryIndex, DocTable) {
    let mut index = InMemoryIndex::new();
    let mut table = DocTable::new();
    for d in 0..docs {
        let id = table.insert(format!("doc{d:06}.txt"));
        let mut terms = vec![
            (Term::from("common"), 1 + d % 3),
            (Term::from(format!("mid{:03}", d % 200)), 1 + d % 5),
            (Term::from(format!("rare{d:06}")), 1),
        ];
        if d % 2 == 0 {
            terms.push((Term::from("even"), 2));
        }
        index.insert_file_counted(id, terms);
    }
    (index, table)
}

fn bench_query_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_eval");
    group.sample_size(10);

    let (index, docs) = synthetic_index(20_000);
    let shards = [SealedShard::from_index(&index)];
    for (shape, raw) in [
        ("term", "mid042"),
        ("and", "mid042 even common"),
        ("or", "mid001 OR mid002 OR rare012345"),
        ("prefix", "mid04*"),
        ("not", "mid042 NOT even"),
    ] {
        let query = Query::parse(raw).expect("bench query parses");
        group.bench_function(shape, |b| {
            b.iter(|| {
                let (results, _) = evaluate(&shards, &docs, &query, Scorer::Bm25, 20, &|| false);
                black_box(results.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_query_eval);
criterion_main!(benches);
