//! Micro-benchmarks of index persistence and incremental re-indexing.
//!
//! Two questions a desktop deployment cares about beyond the paper's scope:
//! how fast can an index be written to / read back from disk (segment
//! encode/decode), and how much work does the incremental re-indexer save
//! compared to a full rebuild when only a small fraction of the corpus
//! changed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use dsearch::core::{Configuration, Implementation, IndexGenerator};
use dsearch::corpus::{materialize_to_memfs, CorpusSpec};
use dsearch::index::{DocTable, InMemoryIndex};
use dsearch::persist::segment::{read_segment, write_segment};
use dsearch::persist::{IncrementalIndexer, SignatureDb};
use dsearch::vfs::{MemFs, VPath};

fn built_index() -> (InMemoryIndex, DocTable) {
    let (fs, _) = materialize_to_memfs(&CorpusSpec::paper_scaled(0.001), 31);
    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 0))
        .expect("index build succeeds");
    run.outcome.into_single_index()
}

fn bench_segment_roundtrip(c: &mut Criterion) {
    let (index, docs) = built_index();
    let mut encoded = Vec::new();
    write_segment(&index, &docs, std::io::Cursor::new(&mut encoded)).unwrap();

    let mut group = c.benchmark_group("persist_segment");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("write", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(encoded.len());
            write_segment(&index, &docs, std::io::Cursor::new(&mut buf)).unwrap();
            black_box(buf.len())
        });
    });
    group.bench_function("read", |b| {
        b.iter(|| {
            let (restored, _) = read_segment(black_box(&encoded[..])).unwrap();
            black_box(restored.term_count())
        });
    });
    group.finish();
}

/// Builds a corpus, indexes it, then mutates `changed_files` files.
fn mutated_corpus(changed_files: usize) -> (MemFs, InMemoryIndex, DocTable, SignatureDb) {
    let (fs, manifest) = materialize_to_memfs(&CorpusSpec::paper_scaled(0.001), 77);
    let indexer = IncrementalIndexer::new();
    let mut index = InMemoryIndex::new();
    let mut docs = DocTable::new();
    let mut signatures = SignatureDb::new();
    indexer.update(&fs, &VPath::root(), &mut index, &mut docs, &mut signatures).unwrap();
    for (i, path) in manifest.paths().into_iter().take(changed_files).enumerate() {
        fs.remove_file(&path).unwrap();
        fs.add_file(&path, format!("rewritten document number {i} with fresh terms").into_bytes())
            .unwrap();
    }
    (fs, index, docs, signatures)
}

fn bench_incremental_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist_incremental_vs_full_rebuild");
    group.sample_size(10);
    for changed in [1usize, 8, 32] {
        let (fs, index, docs, signatures) = mutated_corpus(changed);
        group.bench_with_input(BenchmarkId::new("incremental", changed), &changed, |b, _| {
            let indexer = IncrementalIndexer::new();
            b.iter(|| {
                let mut index = index.clone();
                let mut docs = docs.clone();
                let mut signatures = signatures.clone();
                let report = indexer
                    .update(&fs, &VPath::root(), &mut index, &mut docs, &mut signatures)
                    .unwrap();
                black_box(report.postings_added)
            });
        });
        group.bench_with_input(BenchmarkId::new("full_rebuild", changed), &changed, |b, _| {
            let indexer = IncrementalIndexer::new();
            b.iter(|| {
                let mut index = InMemoryIndex::new();
                let mut docs = DocTable::new();
                let mut signatures = SignatureDb::new();
                let report = indexer
                    .update(&fs, &VPath::root(), &mut index, &mut docs, &mut signatures)
                    .unwrap();
                black_box(report.postings_added)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_segment_roundtrip, bench_incremental_vs_full);
criterion_main!(benches);
