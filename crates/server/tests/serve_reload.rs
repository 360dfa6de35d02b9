//! The acceptance test for snapshot reloads under load: a service keeps
//! answering queries while a concurrent re-index commits a new store state
//! and publishes it as the next snapshot generation.  No in-flight query may
//! observe a torn state — every response must be exactly right for the
//! generation it reports.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_persist::IndexStore;
use dsearch_server::{EngineConfig, IndexSnapshot, Metric, QueryEngine, WorkerPool};
use dsearch_text::Term;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("dsearch-serve-reload-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Generation 1: 20 documents, every one containing `stable`; even documents
/// also contain `alpha`.
fn build_v1(docs: &mut DocTable, index: &mut InMemoryIndex) {
    for i in 0..20u32 {
        let id = docs.insert(format!("v1-{i}.txt"));
        let mut words = vec![Term::from("stable")];
        if i % 2 == 0 {
            words.push(Term::from("alpha"));
        }
        index.insert_file(id, words);
    }
}

/// Generation 2 adds 10 documents containing `stable` and `fresh`.
fn extend_to_v2(docs: &mut DocTable, index: &mut InMemoryIndex) {
    for i in 0..10u32 {
        let id = docs.insert(format!("v2-{i}.txt"));
        index.insert_file(id, [Term::from("stable"), Term::from("fresh")]);
    }
}

#[test]
fn queries_survive_a_concurrent_snapshot_reload() {
    let dir = TempDir::new("main");
    let store_dir = dir.path().join("store");

    // Commit generation 1 and start serving it.
    let mut docs = DocTable::new();
    let mut index = InMemoryIndex::new();
    build_v1(&mut docs, &mut index);
    {
        let mut store = IndexStore::open(&store_dir).unwrap();
        store.replace_with(std::slice::from_ref(&index), &docs).unwrap();
    }
    let store = IndexStore::open(&store_dir).unwrap();
    let engine = QueryEngine::new(
        IndexSnapshot::load(&store, 1).unwrap(),
        EngineConfig {
            workers: 4,
            cache_capacity: 256,
            cache_shards: 4,
            result_limit: 64,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let pool = Arc::new(WorkerPool::start(Arc::clone(&engine)));

    let reload_done = Arc::new(AtomicBool::new(false));
    let observed = std::thread::scope(|scope| {
        // Client threads hammer the service throughout the reload, checking
        // every answer against the generation it claims to come from.
        let mut clients = Vec::new();
        for client in 0..4 {
            let pool = Arc::clone(&pool);
            let reload_done = Arc::clone(&reload_done);
            clients.push(scope.spawn(move || {
                let mut generations = BTreeSet::new();
                let queries = ["stable", "alpha", "fresh", "stable NOT alpha"];
                // Keep querying until the new generation has been both
                // published and observed (bounded by a generous cap).
                for round in 0..200_000 {
                    let raw = queries[(client + round) % queries.len()];
                    let response = pool.execute(raw).expect("queries parse");
                    generations.insert(response.generation);
                    match (response.generation, raw) {
                        (1, "stable") => assert_eq!(response.results.len(), 20),
                        (1, "alpha") => assert_eq!(response.results.len(), 10),
                        (1, "fresh") => assert!(response.results.is_empty()),
                        (1, "stable NOT alpha") => assert_eq!(response.results.len(), 10),
                        (2, "stable") => assert_eq!(response.results.len(), 30),
                        (2, "alpha") => assert_eq!(response.results.len(), 10),
                        (2, "fresh") => assert_eq!(response.results.len(), 10),
                        (2, "stable NOT alpha") => assert_eq!(response.results.len(), 20),
                        (generation, raw) => panic!("unexpected generation {generation} for {raw}"),
                    }
                    // Paths must belong to the generation that answered: a
                    // torn snapshot would mix v1 and v2 counts above, or
                    // leak paths the doc table of that image cannot resolve.
                    assert!(response
                        .results
                        .hits()
                        .iter()
                        .all(|hit| hit.path.starts_with("v1-") || hit.path.starts_with("v2-")));
                    if reload_done.load(Ordering::SeqCst) && generations.contains(&2) && round >= 50
                    {
                        break;
                    }
                }
                generations
            }));
        }

        // Concurrently: re-index (add the v2 documents), commit to the same
        // store, and publish the new snapshot generation.
        let reindexer = {
            let engine = Arc::clone(&engine);
            let reload_done = Arc::clone(&reload_done);
            let store_dir = store_dir.clone();
            scope.spawn(move || {
                let mut docs = DocTable::new();
                let mut index = InMemoryIndex::new();
                build_v1(&mut docs, &mut index);
                extend_to_v2(&mut docs, &mut index);
                let mut store = IndexStore::open(&store_dir).unwrap();
                store.replace_with(std::slice::from_ref(&index), &docs).unwrap();
                let generation = engine.snapshot_cell().reload(&store).unwrap();
                assert_eq!(generation, 2);
                reload_done.store(true, Ordering::SeqCst);
            })
        };
        reindexer.join().unwrap();

        let mut observed = BTreeSet::new();
        for client in clients {
            observed.extend(client.join().unwrap());
        }
        observed
    });

    // Every client ended on generation 2; generation 1 answers were correct
    // while they lasted (clients may or may not have raced ahead of the
    // publish, but generation 2 must definitely have been observed).
    assert!(observed.contains(&2), "new generation was never served: {observed:?}");
    assert_eq!(engine.snapshot_cell().generation(), 2);
    assert_eq!(engine.stats().get(Metric::Errors), 0);
    assert!(engine.stats().get(Metric::Queries) > 0);

    // The displaced generation's cache entries can no longer serve: a fresh
    // "stable" query on generation 2 returns the 30-document answer.
    let check = engine.execute("stable").unwrap();
    assert_eq!(check.generation, 2);
    assert_eq!(check.results.len(), 30);
}

#[test]
fn multi_segment_store_serves_as_sharded_snapshot() {
    let dir = TempDir::new("shards");
    let store_dir = dir.path().join("store");

    // One shared doc table, three segments that each hold part of the run —
    // a resumable build's on-disk layout.
    let mut docs = DocTable::new();
    let mut replicas: Vec<InMemoryIndex> = (0..3).map(|_| InMemoryIndex::new()).collect();
    for i in 0..30u32 {
        let id = docs.insert(format!("doc{i}.txt"));
        let words = [Term::from("common"), Term::from(format!("w{}", i % 5))];
        replicas[(i % 3) as usize].insert_file(id, words);
    }
    let mut store = IndexStore::open(&store_dir).unwrap();
    store.start(&docs).unwrap();
    for replica in &replicas {
        store.append(std::slice::from_ref(replica), &docs).unwrap();
    }

    let snapshot = IndexSnapshot::load(&store, 1).unwrap();
    assert_eq!(snapshot.shard_count(), 3);
    let engine = QueryEngine::new(
        snapshot,
        EngineConfig {
            workers: 2,
            cache_capacity: 64,
            cache_shards: 2,
            result_limit: 64,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let response = engine.execute("common").unwrap();
    assert_eq!(response.results.len(), 30);
    let response = engine.execute("w0 common").unwrap();
    assert_eq!(response.results.len(), 6);
}
