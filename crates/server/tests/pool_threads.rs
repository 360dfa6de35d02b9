//! The serving pool spawns no threads: a query runs on the thread of a
//! caller, its own or that of the caller whose batch took it.
//!
//! The one test of its own binary, so that no other test's threads come and
//! go while it counts this process's threads.

use std::sync::Arc;

use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_server::{EngineConfig, IndexSnapshot, QueryEngine, WorkerPool};
use dsearch_text::Term;

/// Threads of this process, as `/proc/self/task` lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("a Linux /proc").count()
}

#[test]
fn starting_a_pool_of_eight_slots_starts_no_thread() {
    let mut docs = DocTable::new();
    let mut index = InMemoryIndex::new();
    let id = docs.insert("a.txt");
    index.insert_file(id, [Term::from("rust"), Term::from("search")]);
    let engine = QueryEngine::new(
        IndexSnapshot::from_index(index, docs, 1),
        EngineConfig { workers: 8, ..EngineConfig::default() },
    )
    .unwrap();
    let before = threads();
    let pool = WorkerPool::start(Arc::clone(&engine));
    assert_eq!(threads(), before, "the pool spawned threads");
    assert!(pool.execute("rust").is_ok());
    assert_eq!(threads(), before, "a query spawned threads");
    assert_eq!(pool.shutdown(), 1);
}
