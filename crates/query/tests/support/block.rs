//! Block-scale corpora for the evaluator's tests — hundreds to thousands of
//! documents, so posting lists span many blocks and the evaluator's windows
//! open and close — and a BM25 oracle as naive as the boolean one.

use std::collections::HashMap;

use dsearch_index::{DocTable, FileId, InMemoryIndex, SealedShard, BM25_B, BM25_K1};
use dsearch_query::Query;
use dsearch_text::Term;

use crate::oracle::Oracle;

/// BM25 computed from each document's term frequencies and length alone —
/// no postings, no bounds, none of the evaluator's code: the statistics of
/// a shard are counted from its documents, and the formulas are written out
/// again here, operation for operation, so a score must agree to the bit.
#[derive(Debug, Default)]
pub struct Bm25Oracle {
    /// Per document: its shard and its `(word, tf)` pairs.
    docs: HashMap<FileId, (usize, Vec<(String, u32)>)>,
    /// Per shard: its documents, their summed lengths, and per word the
    /// documents holding it.
    shards: Vec<(u64, u64, HashMap<String, u64>)>,
}

fn length(words: &[(String, u32)]) -> u64 {
    words.iter().map(|&(_, tf)| u64::from(tf)).sum()
}

impl Bm25Oracle {
    pub fn add(&mut self, id: FileId, shard: usize, counted: &[(String, u32)]) {
        if self.shards.len() <= shard {
            self.shards.resize_with(shard + 1, Default::default);
        }
        let (docs, total, df) = &mut self.shards[shard];
        *docs += 1;
        *total += length(counted);
        for (word, _) in counted {
            *df.entry(word.clone()).or_default() += 1;
        }
        self.docs.insert(id, (shard, counted.to_vec()));
    }

    /// `id`'s score for `query` — its contributions summed in ascending term
    /// order in `f64`, rounded once — and the number of distinct query terms
    /// it holds.
    pub fn score(&self, id: FileId, query: &Query) -> (f32, usize) {
        let (shard, words) = &self.docs[&id];
        let (docs, total, df) = &self.shards[*shard];
        let n = *docs as f64;
        let avg = *total as f64 / n;
        let scale = 1.0 - f64::from(BM25_B) + f64::from(BM25_B) * (length(words) as f64 / avg);
        let norm = (f64::from(BM25_K1) * scale) as f32;
        let (mut sum, mut held) = (0.0f64, 0);
        for term in query.terms() {
            let Some(&(_, tf)) = words.iter().find(|(word, _)| word == term.as_str()) else {
                continue;
            };
            let df = df[term.as_str()] as f64;
            let idf = ((1.0 + (n - df + 0.5).max(0.0) / (df + 0.5)).ln()) as f32;
            let tf = tf as f32;
            sum += f64::from(idf * (tf * (BM25_K1 + 1.0)) / (tf + norm));
            held += 1;
        }
        (sum as f32, held)
    }
}

/// The words of the block-scale corpora, each with the share of documents
/// (out of 1024) it appears in: lists from many blocks to a handful of
/// postings, and two prefixes (`al*`, `be*`) that expand to two words each.
pub const BLOCK_VOCAB: &[(&str, u64)] = &[
    ("alpha", 900),
    ("alps", 60),
    ("beta", 500),
    ("bet", 250),
    ("gamma", 120),
    ("delta", 30),
    ("omega", 5),
];

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Document `draw`'s words and frequencies: each word of [`BLOCK_VOCAB`] with
/// its share, `alpha` only before the `dense_until` mark (so the densest
/// list runs out mid-corpus); frequencies mostly 1–6, now and then up to 40.
pub fn block_doc(draw: u64, dense_until: bool) -> Vec<(String, u32)> {
    let mut words = Vec::new();
    for (w, &(word, share)) in BLOCK_VOCAB.iter().enumerate() {
        let roll = mix(draw ^ (w as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if roll % 1024 >= share || (w == 0 && !dense_until) {
            continue;
        }
        let tf = if (roll >> 20).is_multiple_of(16) {
            1 + (roll >> 24) % 40
        } else {
            1 + (roll >> 24) % 6
        };
        words.push((word.to_owned(), tf as u32));
    }
    words
}

/// A block-scale corpus of one document per draw ([`block_doc`]), `alpha`
/// only in the first `dense_percent` of them, dealt round-robin to `shards`
/// shards of one doc table, with both oracles over the same documents.
/// Before document `at` of every `(at, by)` in `jumps` the doc table takes
/// `by` ids no shard indexes, so id runs jump past a window's width.  Paths
/// descend while ids ascend, so the path tie-break is not the id order.
pub fn block_corpus(
    draws: &[u64],
    dense_percent: usize,
    jumps: &[(usize, u32)],
    shards: usize,
) -> (Vec<SealedShard>, DocTable, Oracle, Bm25Oracle) {
    let mut docs = DocTable::new();
    let (mut oracle, mut bm25) = (Oracle::default(), Bm25Oracle::default());
    let mut parts: Vec<InMemoryIndex> = (0..shards).map(|_| InMemoryIndex::new()).collect();
    let dense_until = draws.len() * dense_percent / 100;
    for (i, &draw) in draws.iter().enumerate() {
        for &(_, by) in jumps.iter().filter(|&&(at, _)| at == i) {
            for gap in 0..by {
                let _ = docs.insert(format!("gap/{i}/{gap}"));
            }
        }
        let path = format!("doc{:05}.txt", draws.len() - i);
        let id = docs.insert(path.as_str());
        let counted = block_doc(draw, i < dense_until);
        oracle.add(id, &path, counted.iter().map(|(word, _)| word.as_str()));
        bm25.add(id, i % shards, &counted);
        let terms = counted.iter().map(|(word, tf)| (Term::from(word.as_str()), *tf));
        parts[i % shards].insert_file_counted(id, terms);
    }
    (parts.iter().map(SealedShard::from_index).collect(), docs, oracle, bm25)
}
