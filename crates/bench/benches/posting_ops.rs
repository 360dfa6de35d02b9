//! The query-evaluation layer in isolation: six query shapes through the
//! one evaluator (`dsearch::query::evaluate`) over one sealed shard, no
//! engine, no cache, no wire — the criterion counterpart of the repo
//! benchmark's `query.eval_{term,and,or,prefix,not}_ns`.
//!
//! Each shape runs as the engine runs it: BM25 (the constant scorer where
//! the shape cannot be scored), bounded at the default result limit.
//!
//! The index is built the way a store is: the corpus generator's seeded Zipf
//! text (in memory, no files on disk) through the real extraction pipeline,
//! so gaps and frequencies are distributed like a store's.  A hand-made index
//! of arithmetic progressions (every id, every other, every 200th) measures a
//! case production does not have: every block the same width-0 run.  The
//! queries are picked from the vocabulary by document frequency, and the list
//! lengths are printed once so a reader can tell what was measured — with,
//! per shape, the candidates the MaxScore loop took, the documents it scored
//! in full, its seeks of non-essential groups and the nanoseconds per
//! candidate.  `or12` is a twelve-group disjunction: each candidate is the
//! smallest next match of the essential groups, found by a linear scan, and
//! this shape is where that scan would show.  The candidates split into
//! those a lone essential group handed out straight from its decoded block
//! and those walked through a window's slots.
//!
//! `block_decode` isolates the block codec's unpack kernel: every id-gap and
//! frequency block of a `paper_scaled` store, encoded as a seal encodes it,
//! decoded again — ns per value for each width that occurs, and in all.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use dsearch::core::{Configuration, Implementation, IndexGenerator};
use dsearch::corpus::{materialize_to_memfs, CorpusSpec};
use dsearch::index::block::{decode, encode, encoded_width};
use dsearch::index::{DocTable, InMemoryIndex, SealedShard, BLOCK_SIZE};
use dsearch::query::{evaluate, Query, Scorer};
use dsearch::vfs::VPath;

/// ~20 k short documents (12 MB of text) over a 30 k-word Zipf vocabulary.
fn zipf_index() -> (InMemoryIndex, DocTable) {
    let spec = CorpusSpec {
        small_files: 20_000,
        small_file_median_bytes: 500,
        small_file_sigma: 0.6,
        large_files: 0,
        vocabulary_size: 30_000,
        directories: 64,
        ..CorpusSpec::paper()
    };
    let (fs, _) = materialize_to_memfs(&spec, 0x5eed);
    IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 0))
        .expect("the in-memory corpus indexes")
        .outcome
        .into_single_index()
}

/// The shapes over terms chosen by document frequency: the most frequent
/// term, one in every other document or so, three around every
/// two-hundredth, one of a single document, and twelve of at most every
/// fiftieth.
fn queries(index: &InMemoryIndex, docs: usize) -> Vec<(&'static str, String)> {
    let mut by_df: Vec<(&str, usize)> =
        index.iter().map(|(t, list)| (t.as_str(), list.len())).collect();
    by_df.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    // The first `n` terms (by falling frequency) in at most `df` documents.
    let at_most = |df: usize, n: usize| -> Vec<(&str, usize)> {
        by_df.iter().filter(|(_, len)| *len <= df).take(n).copied().collect()
    };
    let (top, half) = (by_df[0], at_most(docs / 2, 1)[0]);
    let mid = at_most(docs / 200, 3);
    let many = at_most(docs / 50, 12);
    let rare = *by_df.last().expect("a non-empty index");
    let prefix: String = mid[0].0.chars().take(3).collect();
    let matched: Vec<usize> =
        by_df.iter().filter(|(t, _)| t.starts_with(&prefix)).map(|(_, len)| *len).collect();
    println!(
        "query_eval index: {docs} documents, {} terms; list lengths: {top:?} {half:?} {mid:?} \
         {rare:?} {many:?}; prefix {prefix}* = {} terms, {} postings",
        by_df.len(),
        matched.len(),
        matched.iter().sum::<usize>(),
    );
    vec![
        ("term", mid[0].0.to_owned()),
        ("and", format!("{} {} {}", mid[0].0, half.0, top.0)),
        ("or", format!("{} OR {} OR {}", mid[1].0, mid[2].0, rare.0)),
        ("or12", many.iter().map(|(term, _)| *term).collect::<Vec<_>>().join(" OR ")),
        ("prefix", format!("{prefix}*")),
        ("not", format!("{} NOT {}", mid[0].0, half.0)),
    ]
}

fn bench_query_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_eval");
    group.sample_size(10);

    let (index, docs) = zipf_index();
    let shards = [SealedShard::from_index(&index)];
    for (shape, raw) in queries(&index, docs.len()) {
        let query = Query::parse(&raw).expect("bench query parses");
        // How much work a query is — its candidates, the documents scored in
        // full, the non-essential seeks — and the evaluation's time spread
        // over the candidates (informational: the fixed setup is in it).
        let run = || evaluate(&shards, &docs, &query, Scorer::Bm25, 20, &|| false);
        let (_, prune) = run();
        const TIMED: u32 = 200;
        let started = Instant::now();
        (0..TIMED).for_each(|_| drop(black_box(run())));
        let per_query = started.elapsed() / TIMED;
        println!(
            "query_eval/{shape}: {} candidates ({} from a lone group, {} through window slots), \
             {} documents scored, {} non-essential seeks, {:.1} ns per candidate \
             ({per_query:?} per query)",
            prune.rounds,
            prune.lone,
            prune.rounds - prune.lone,
            prune.scored,
            prune.seeks,
            per_query.as_nanos() as f64 / prune.rounds.max(1) as f64,
        );
        group.bench_function(shape, |b| {
            b.iter(|| {
                let (results, _) = evaluate(&shards, &docs, &query, Scorer::Bm25, 20, &|| false);
                black_box(results.len())
            });
        });
    }
    group.finish();
}

/// A store's codec blocks of one kind, as its lists lay them out: each
/// list's blocks back to back in one buffer, so a block decodes from a
/// payload that runs on to the list's end, as in a segment.
struct Blocks {
    lists: Vec<Vec<u8>>,
    /// `(list, offset, values)` per block.
    blocks: Vec<(usize, usize, usize)>,
}

impl Blocks {
    fn push_list(&mut self, values: impl Iterator<Item = u32>) {
        let values: Vec<u32> = values.collect();
        let mut bytes = Vec::new();
        for block in values.chunks(BLOCK_SIZE) {
            self.blocks.push((self.lists.len(), bytes.len(), block.len()));
            encode(block, &mut bytes);
        }
        self.lists.push(bytes);
    }

    /// The blocks of width `width` only.
    fn of_width(&self, width: usize) -> Vec<(usize, usize, usize)> {
        let width_of =
            |&(list, at, _): &(usize, usize, usize)| encoded_width(&self.lists[list][at..]);
        self.blocks.iter().filter(|block| width_of(block) == width).copied().collect()
    }

    /// Decodes `blocks` once; returns the values decoded.
    fn decode(&self, blocks: &[(usize, usize, usize)]) -> usize {
        let mut out = [0u32; BLOCK_SIZE];
        let mut values = 0;
        for &(list, at, count) in blocks {
            decode(&self.lists[list][at..], &mut out[..count]);
            black_box(&out);
            values += count;
        }
        values
    }
}

/// Every block of `spec`'s store as the seal encodes it: per list, its id
/// gaps less one (each block's first id is a varint of its own, outside the
/// codec) and its frequencies less one — `[ids, tfs]`.
fn store_blocks(spec: &CorpusSpec) -> [Blocks; 2] {
    let (fs, _) = materialize_to_memfs(spec, 0x5eed);
    let (index, _) = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 0))
        .expect("the in-memory corpus indexes")
        .outcome
        .into_single_index();
    let shard = SealedShard::from_index(&index);
    let (mut ids, mut tfs) = (Vec::new(), Vec::new());
    let mut kinds = [(); 2].map(|()| Blocks { lists: Vec::new(), blocks: Vec::new() });
    for (_, list) in shard.iter() {
        list.decode_into(&mut ids);
        list.decode_freqs_into(&mut tfs);
        let gaps = ids.chunks(BLOCK_SIZE).flat_map(|block| block.windows(2));
        kinds[0].push_list(gaps.map(|pair| pair[1].0 - pair[0].0 - 1));
        if !tfs.is_empty() {
            kinds[1].push_list(tfs.iter().map(|tf| tf - 1));
        }
    }
    kinds
}

fn bench_block_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_decode");
    group.sample_size(10);
    let [ids, tfs] = store_blocks(&CorpusSpec::paper_scaled(0.05));
    for (kind, blocks) in [("ids", ids), ("tfs", tfs)] {
        // Width by width, each timed over enough rounds to pass ~2 M values.
        let mut line = format!("block_decode/{kind}: {} blocks;", blocks.blocks.len());
        for width in 0..=32 {
            let of_width = blocks.of_width(width);
            if of_width.is_empty() {
                continue;
            }
            let values: usize = of_width.iter().map(|&(.., count)| count).sum();
            let rounds = (2_000_000 / values).clamp(1, 10_000);
            let started = Instant::now();
            (0..rounds).for_each(|_| {
                black_box(blocks.decode(&of_width));
            });
            let ns = started.elapsed().as_nanos() as f64 / (rounds * values) as f64;
            let per_block = values as f64 / of_width.len() as f64;
            line += &format!(
                " w{width}: {} blocks of {per_block:.0} values, {ns:.2} ns/value;",
                of_width.len()
            );
        }
        println!("{line}");
        let all = blocks.blocks.clone();
        group.bench_function(kind, |b| b.iter(|| blocks.decode(&all)));
    }
    group.finish();
}

criterion_group!(benches, bench_query_eval, bench_block_decode);
criterion_main!(benches);
