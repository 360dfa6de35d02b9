//! Batched-execution acceptance tests: a batch of queries shares one
//! snapshot generation, deduplicates identical canonical queries, and reuses
//! posting lookups, with the savings visible in the engine counters.  How a
//! backlog becomes such a batch is `batch.rs`'s `pool_contract`.

use std::sync::Arc;

use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_server::{EngineConfig, IndexSnapshot, Metric, QueryEngine};
use dsearch_text::Term;

fn snapshot() -> IndexSnapshot {
    let mut docs = DocTable::new();
    let mut index = InMemoryIndex::new();
    for i in 0..60u32 {
        let id = docs.insert(format!("doc{i}.txt"));
        let words = ["shared".to_string(), format!("w{}", i % 6), format!("rare{i}")];
        index.insert_file(id, words.into_iter().map(Term::from));
    }
    IndexSnapshot::from_index(index, docs, 1)
}

#[test]
fn a_duplicate_heavy_batch_costs_one_search_per_distinct_query() {
    // Cache of one entry: the cache cannot absorb a rotating query mix, so
    // any savings below must come from in-batch deduplication.
    let engine = QueryEngine::new(
        snapshot(),
        EngineConfig { cache_capacity: 1, cache_shards: 1, ..EngineConfig::default() },
    )
    .unwrap();

    // 32 queries, 4 distinct canonical forms.
    let raws: Vec<String> = (0..32).map(|i| format!("shared w{}", i % 4)).collect();
    let raw_refs: Vec<&str> = raws.iter().map(String::as_str).collect();
    let responses = engine.execute_batch(&raw_refs);

    assert_eq!(responses.len(), 32);
    for (i, response) in responses.iter().enumerate() {
        let response = response.as_ref().unwrap();
        assert_eq!(response.generation, 1, "slot {i}");
        assert_eq!(response.results.len(), 10, "slot {i}: shared ∩ w{}", i % 4);
    }
    // One cache probe (miss) per distinct canonical query; everything else
    // was answered by deduplication.
    let counters = engine.cache_counters();
    assert_eq!(counters.misses, 4);
    assert_eq!(counters.hits, 0);
    assert_eq!(engine.stats().get(Metric::DedupHits), 28);
    assert_eq!(engine.stats().get(Metric::Batched), 32);
    assert_eq!(engine.stats().get(Metric::Batches), 1);
    assert_eq!(engine.stats().get(Metric::Queries), 32);

    // Duplicates share the result allocation, not just equal contents.
    let first = responses[0].as_ref().unwrap();
    let fifth = responses[4].as_ref().unwrap();
    assert!(Arc::ptr_eq(&first.results, &fifth.results));
}
