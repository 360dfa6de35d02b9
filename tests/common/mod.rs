//! Shared by the integration tests that compare a store with a rebuild: a
//! scratch directory, and what a store *says* — by path, because an
//! incrementally updated store keeps the ids (and the tombstones) of its
//! history while a rebuild numbers the files it finds.

// Each test crate that includes this module uses its own part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use dsearch::index::{join_all, SealedShard};
use dsearch::persist::IndexStore;
use dsearch::query::{evaluate, Query, Scorer};

pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        let unique =
            format!("dsearch-it-{tag}-{}-{:?}", std::process::id(), std::thread::current().id());
        let path = std::env::temp_dir().join(unique.replace(['(', ')', ' '], ""));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Everything a store answers with, under paths instead of ids.
#[derive(Debug, PartialEq)]
pub struct Said {
    /// `(term, path) → tf`.
    pub postings: BTreeMap<(String, String), u32>,
    /// `path → length`, of the documents that have one (BM25's population).
    pub lengths: BTreeMap<String, u32>,
    /// Per query, the ten best `(path, score bits)` in rank order, BM25
    /// through `dsearch_query::evaluate` over the sealed segments.
    pub ranked: Vec<Vec<(String, u32)>>,
}

pub fn said<Q: AsRef<str>>(store: &IndexStore, queries: &[Q]) -> Said {
    let (indexes, tables): (Vec<_>, Vec<_>) = store.load_all().unwrap().into_iter().unzip();
    let docs = tables.into_iter().max_by_key(|table| table.len()).unwrap_or_default();
    let index = join_all(indexes);
    let path = |id| docs.path(id).expect("every posting is of a known document").to_owned();
    let mut postings = BTreeMap::new();
    for (term, list) in index.iter() {
        for (id, tf) in list.iter_counted() {
            postings.insert((term.as_str().to_owned(), path(id)), tf);
        }
    }
    let lengths = index.doc_lens().map(|(id, len)| (path(id), len)).collect();

    let shards: Vec<SealedShard> =
        store.load_all_sealed().unwrap().into_iter().map(|(shard, _)| shard).collect();
    let ranked = queries
        .iter()
        .map(|raw| {
            let query = Query::parse(raw.as_ref()).unwrap();
            let (results, _) = evaluate(&shards, &docs, &query, Scorer::Bm25, 10, &|| false);
            results.hits().iter().map(|hit| (hit.path.to_string(), hit.score.to_bits())).collect()
        })
        .collect();
    Said { postings, lengths, ranked }
}

/// A few `OR` and `AND` queries over the most frequent terms of `store`:
/// ones that rank many documents, with frequencies and lengths that differ.
pub fn frequent_queries(store: &IndexStore) -> Vec<String> {
    let index = join_all(store.load_all().unwrap().into_iter().map(|(index, _)| index).collect());
    let mut by_length: Vec<(usize, &str)> =
        index.iter().map(|(term, list)| (list.len(), term.as_str())).collect();
    by_length.sort_unstable_by(|a, b| b.cmp(a));
    let top: Vec<&str> = by_length.iter().take(6).map(|&(_, term)| term).collect();
    let mut queries: Vec<String> = top.windows(2).map(|pair| pair.join(" OR ")).collect();
    queries.extend(top.windows(2).map(|pair| pair.join(" AND ")));
    queries.push(top.join(" OR "));
    queries
}
