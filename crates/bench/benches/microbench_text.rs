//! Micro-benchmarks of the text substrate as the build runs it: FNV hashing,
//! the open-addressing map beside `std`'s map under the same FNV hasher, and
//! Stage 2's scan + per-file duplicate elimination (`Scanner::next_token`
//! feeding a warm `WordListBuilder::push_str`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::collections::HashMap;
use std::hint::black_box;

use dsearch::corpus::{CorpusSpec, DocumentGenerator};
use dsearch::text::hashtable::FnvHashMap;
use dsearch::text::tokenizer::Tokenizer;
use dsearch::text::wordlist::WordListBuilder;
use dsearch::text::{fnv1a_64, FnvBuildHasher};

fn bench_fnv(c: &mut Criterion) {
    let mut group = c.benchmark_group("fnv");
    let inputs: Vec<&[u8]> = vec![b"a", b"filename", b"a-reasonably-long-identifier-term"];
    for input in inputs {
        group.throughput(Throughput::Bytes(input.len() as u64));
        group.bench_with_input(format!("fnv1a_64/{}B", input.len()), input, |b, input| {
            b.iter(|| black_box(fnv1a_64(input)));
        });
    }
    group.finish();
}

fn bench_hashtable(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashtable");
    group.sample_size(20);
    let keys: Vec<String> = (0..10_000).map(|i| format!("term{i:05}")).collect();

    // Both maps hash with FNV-1a 64, so the pairs compare the tables alone.
    group.bench_function("fnv_map_insert_10k", |b| {
        b.iter(|| {
            let mut map: FnvHashMap<&str, u32> = FnvHashMap::with_capacity(keys.len());
            for (i, k) in keys.iter().enumerate() {
                map.insert(k.as_str(), i as u32);
            }
            black_box(map.len())
        });
    });
    group.bench_function("std_fnv_map_insert_10k", |b| {
        b.iter(|| {
            let mut map: HashMap<&str, u32, FnvBuildHasher> =
                HashMap::with_capacity_and_hasher(keys.len(), FnvBuildHasher::default());
            for (i, k) in keys.iter().enumerate() {
                map.insert(k.as_str(), i as u32);
            }
            black_box(map.len())
        });
    });
    group.bench_function("fnv_map_dedup_10k", |b| {
        b.iter(|| {
            let mut seen: FnvHashMap<&str, ()> = FnvHashMap::with_capacity(keys.len());
            for k in &keys {
                seen.insert(k.as_str(), ());
                seen.insert(k.as_str(), ());
            }
            black_box(seen.len())
        });
    });
    group.bench_function("std_fnv_map_dedup_10k", |b| {
        b.iter(|| {
            let mut seen: HashMap<&str, (), FnvBuildHasher> =
                HashMap::with_capacity_and_hasher(keys.len(), FnvBuildHasher::default());
            for k in &keys {
                seen.insert(k.as_str(), ());
                seen.insert(k.as_str(), ());
            }
            black_box(seen.len())
        });
    });
    group.finish();
}

fn bench_tokenizer(c: &mut Criterion) {
    let gen = DocumentGenerator::new(&CorpusSpec::tiny(), 9);
    let doc = gen.generate(200_000, 1);
    let tokenizer = Tokenizer::default();

    let mut group = c.benchmark_group("tokenizer");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(doc.len() as u64));
    group.bench_function("scan_only_200kB", |b| {
        b.iter(|| black_box(tokenizer.scan_only(&doc)));
    });
    group.bench_function("scan_200kB", |b| {
        let mut token = String::new();
        b.iter(|| {
            let mut scanner = tokenizer.scan(&doc);
            let mut tokens = 0usize;
            while scanner.next_token(&mut token).is_some() {
                tokens += 1;
            }
            black_box(tokens)
        });
    });
    // What one extractor does per file: the builder lives across files, so
    // its table already interns the vocabulary (the steady state of a build).
    group.bench_function("scan_and_push_str_200kB", |b| {
        let mut token = String::new();
        let mut words = WordListBuilder::new();
        b.iter(|| {
            let mut scanner = tokenizer.scan(&doc);
            while let Some(t) = scanner.next_token(&mut token) {
                words.push_str(t);
            }
            black_box(words.reset().len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fnv, bench_hashtable, bench_tokenizer);
criterion_main!(benches);
