//! Micro-benchmarks of index persistence and incremental re-indexing.
//!
//! Two questions a desktop deployment cares about beyond the paper's scope:
//! how fast can an index be written to / read back from disk (segment
//! encode/decode), and how much work does an incremental update save
//! compared to a full rebuild when only a small fraction of the corpus
//! changed.  And two this repository's store adds: what merging the replicas
//! of an Implementation 3 run into one segment costs against writing them
//! apart, and what sealing over term ranges on every core gains; and what the
//! load at the heart of a server's boot costs per megabyte of segment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

use dsearch::core::{Configuration, Implementation, IndexGenerator};
use dsearch::corpus::{materialize_to_memfs, CorpusSpec};
use dsearch::index::{DocTable, InMemoryIndex, SealedTerms};
use dsearch::persist::segment::{read_segment, write_segment};
use dsearch::persist::IndexStore;
use dsearch::vfs::{FileSystem, VPath};

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

/// A two-replica Implementation 3 run, persisted apart (one segment a
/// replica, as the store did before it merged) and merged; and the merged
/// seal alone, on one thread and on all.
fn bench_run_of_two_replicas(c: &mut Criterion) {
    let (fs, _) = materialize_to_memfs(&CorpusSpec::paper_scaled(0.03), 31);
    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateNoJoin, Configuration::new(2, 0, 0))
        .expect("index build succeeds");
    let (replicas, docs) = (run.outcome.replicas(), run.outcome.docs());
    let dir = std::env::temp_dir().join(format!("dsearch-bench-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = IndexStore::open(&dir).expect("the store opens");
    let apart = store.replace_with(&replicas[..1], docs).unwrap().bytes
        + store.commit(&replicas[1], docs).unwrap().bytes;
    let merged = store.replace_with(replicas, docs).unwrap();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "persist_run_of_two_replicas: {} postings; two segments {apart} B, merged {} B; {cores} core(s)",
        merged.posting_count, merged.bytes
    );

    let mut group = c.benchmark_group("persist_run_of_two_replicas");
    group.sample_size(10);
    group.bench_function("write_two_segments", |b| {
        b.iter(|| {
            store.replace_with(&replicas[..1], docs).unwrap();
            black_box(store.commit(&replicas[1], docs).unwrap().bytes)
        });
    });
    group.bench_function("write_merged", |b| {
        b.iter(|| black_box(store.replace_with(replicas, docs).unwrap().bytes));
    });
    let seal = |threads: usize| {
        let mut bytes = 0;
        let Ok(()) = SealedTerms::new(replicas).encode_on(threads, |chunk| {
            bytes += chunk.bytes.len();
            Ok::<(), std::convert::Infallible>(())
        });
        bytes
    };
    group.bench_function("seal_1_thread", |b| b.iter(|| black_box(seal(1))));
    group.bench_function("seal_n_threads", |b| b.iter(|| black_box(seal(cores))));
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The boot's load alone: [`IndexStore::load_all_sealed`] of a one-segment
/// store of the corpus above — the file read in parts, its checksum and doc
/// table verified beside its term tables, on every core — printed as
/// milliseconds per MB of segment.
fn bench_load_sealed(c: &mut Criterion) {
    let (fs, _) = materialize_to_memfs(&CorpusSpec::paper_scaled(0.03), 31);
    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateNoJoin, Configuration::new(2, 0, 0))
        .expect("index build succeeds");
    let dir = std::env::temp_dir().join(format!("dsearch-bench-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = IndexStore::open(&dir).expect("the store opens");
    let info = store.replace_with(run.outcome.replicas(), run.outcome.docs()).unwrap();
    let mb = info.bytes as f64 / f64::from(1 << 20);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let loads = 20;
    let started = Instant::now();
    for _ in 0..loads {
        black_box(store.load_all_sealed().unwrap());
    }
    let ms = started.elapsed().as_secs_f64() * 1e3 / f64::from(loads);
    println!(
        "persist_load_sealed: one segment of {mb:.2} MB ({} documents, {} terms), \
         {ms:.2} ms a load = {:.2} ms per MB on {cores} core(s)",
        info.doc_count,
        info.term_count,
        ms / mb
    );

    let mut group = c.benchmark_group("persist_load_sealed");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(info.bytes));
    group.bench_function("load_all_sealed", |b| {
        b.iter(|| black_box(store.load_all_sealed().unwrap().len()));
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// What an incremental update costs against a full run into the same store,
/// on the corpus above: every iteration appends a revision marker to
/// `changed` of its files (so exactly that many read as modified and the
/// corpus keeps its size), then runs one `update_store` — load the segment,
/// walk and sign every file, drop the stale postings, extract the changed
/// files on every core, seal, write, save the signatures.
fn bench_incremental_vs_full(c: &mut Criterion) {
    let (fs, manifest) = materialize_to_memfs(&CorpusSpec::paper_scaled(0.03), 31);
    let paths = manifest.paths();
    let originals: Vec<Vec<u8>> = paths.iter().map(|path| fs.read(path).unwrap()).collect();
    let dir =
        std::env::temp_dir().join(format!("dsearch-bench-incremental-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = IndexStore::open(&dir).expect("the store opens");
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let generator = IndexGenerator::default();
    let (implementation, configuration) =
        (Implementation::ReplicateNoJoin, Configuration::new(cores, 0, 0));
    let first = generator
        .update_store(&fs, &VPath::root(), &mut store, implementation, configuration)
        .expect("the first update succeeds");
    println!(
        "persist_incremental_vs_full_rebuild: {} files, {} postings, {cores} extractor(s)",
        first.changes.added.len(),
        first.info.posting_count
    );

    let mut group = c.benchmark_group("persist_incremental_vs_full_rebuild");
    group.sample_size(10);
    let mut revision = 0u64;
    for changed in [1usize, 16, 256] {
        group.bench_with_input(BenchmarkId::new("incremental", changed), &changed, |b, _| {
            b.iter(|| {
                revision += 1;
                for (path, original) in paths.iter().zip(&originals).take(changed) {
                    let mut contents = original.clone();
                    contents.extend_from_slice(format!(" revision{revision}").as_bytes());
                    fs.remove_file(path).unwrap();
                    fs.add_file(path, contents).unwrap();
                }
                let report = generator
                    .update_store(&fs, &VPath::root(), &mut store, implementation, configuration)
                    .unwrap();
                assert_eq!(report.changes.modified.len(), changed);
                black_box(report.info.bytes)
            });
        });
    }
    group.bench_function("full_rebuild", |b| {
        b.iter(|| {
            let run = generator.run(&fs, &VPath::root(), implementation, configuration).unwrap();
            black_box(store.replace_with(run.outcome.replicas(), run.outcome.docs()).unwrap().bytes)
        });
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_segment_roundtrip,
    bench_run_of_two_replicas,
    bench_load_sealed,
    bench_incremental_vs_full
);
criterion_main!(benches);
