//! Micro-benchmarks of the text substrate as the build runs it: FNV hashing,
//! the open-addressing map beside `std`'s map under the same FNV hasher, and
//! Stage 2's scan + per-file duplicate elimination (`Scanner::next_token`
//! feeding a warm `WordListBuilder::push_str`), and the scan of accented
//! text, UTF-8 and Latin-1, that takes the scanner's folding path.

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
    // The same text with an accent on about one word in twenty, so the
    // scanner's folding path has a number beside the ASCII one.
    for (name, latin1) in [("scan_200kB_accented", false), ("scan_200kB_accented_latin1", true)] {
        let text = accented(&doc, latin1);
        group.bench_function(name, |b| {
            let mut token = String::new();
            b.iter(|| {
                let mut scanner = tokenizer.scan(&text);
                let mut tokens = 0usize;
                while scanner.next_token(&mut token).is_some() {
                    tokens += 1;
                }
                black_box(tokens)
            });
        });
    }
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

/// `doc` with one `e` made `é` in the first word holding an `e` of every
/// twenty words (about 5 % of them), in UTF-8 or, with `latin1`, as the
/// single byte 0xE9, which makes the whole buffer Latin-1.
fn accented(doc: &[u8], latin1: bool) -> Vec<u8> {
    let accent: &[u8] = if latin1 { &[0xE9] } else { "é".as_bytes() };
    let mut out = Vec::with_capacity(doc.len() + doc.len() / 50);
    let mut due = false;
    for (i, word) in doc.split(|&b| b == b' ').enumerate() {
        if i > 0 {
            out.push(b' ');
        }
        due |= i % 20 == 0;
        match word.iter().position(|&b| b == b'e').filter(|_| due) {
            Some(at) => {
                out.extend_from_slice(&word[..at]);
                out.extend_from_slice(accent);
                out.extend_from_slice(&word[at + 1..]);
                due = false;
            }
            None => out.extend_from_slice(word),
        }
    }
    out
}

criterion_group!(benches, bench_fnv, bench_hashtable, bench_tokenizer);
criterion_main!(benches);
