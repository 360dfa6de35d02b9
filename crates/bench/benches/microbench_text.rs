//! Micro-benchmarks of the text substrate: FNV hashing, the open-addressing
//! map, tokenisation and per-file duplicate elimination.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use dsearch::corpus::{CorpusSpec, DocumentGenerator};
use dsearch::text::fnv1a_64;
use dsearch::text::hashtable::FnvHashMap;
use dsearch::text::tokenizer::Tokenizer;
use dsearch::text::wordlist::WordListBuilder;

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

    group.bench_function("fnv_map_insert_10k", |b| {
        b.iter(|| {
            let mut map: FnvHashMap<&str, u32> = FnvHashMap::with_capacity(keys.len());
            for (i, k) in keys.iter().enumerate() {
                map.insert(k.as_str(), i as u32);
            }
            black_box(map.len())
        });
    });
    group.bench_function("std_map_insert_10k", |b| {
        b.iter(|| {
            let mut map: std::collections::HashMap<&str, u32> =
                std::collections::HashMap::with_capacity(keys.len());
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
    group.bench_function("tokenize_200kB", |b| {
        b.iter(|| {
            let (terms, _) = tokenizer.tokenize(&doc);
            black_box(terms.len())
        });
    });
    group.bench_function("tokenize_and_dedup_200kB", |b| {
        b.iter(|| {
            let (terms, _) = tokenizer.tokenize(&doc);
            let mut builder = WordListBuilder::with_capacity(terms.len() / 2);
            for t in terms {
                builder.push(t);
            }
            black_box(builder.finish().len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fnv, bench_hashtable, bench_tokenizer);
criterion_main!(benches);
