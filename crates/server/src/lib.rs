//! `dsearch-server` — the concurrent query-serving subsystem.
//!
//! The paper's pipeline produces an index in a batch run; this crate turns
//! that artifact into a long-lived service, the direction the paper's
//! future-work section points ("integrate the search query functionality and
//! parallelize it, for instance by using multiple indices"):
//!
//! * [`snapshot`] — [`IndexSnapshot`] loads an on-disk
//!   [`dsearch_persist::IndexStore`] into an immutable, `Arc`-shared image
//!   (one shard per segment, mirroring Implementation 3's replica set), and
//!   [`SnapshotCell`] swaps generations atomically so a background re-index
//!   never blocks or corrupts in-flight queries;
//! * [`batch`] — the serving skeleton, written once: the [`Executor`] trait
//!   (stats, batch config, worker count, default deadline, `run_batch`, and
//!   the `!stats` / `!reload` / render answers), the admission-controlled
//!   queue that bounds depth and rejects what finds it full, the [`Pool`] of
//!   workers draining whatever is queued in batches, and the frame around a
//!   batch (prefixes, deadlines, one parse per line, identical canonical
//!   queries grouped; then accounting and per-client trace ids);
//! * [`engine`] — [`QueryEngine`], the executor of `dsearch serve`: cache
//!   probe → evaluate (the one evaluator of `dsearch_query`, over the
//!   snapshot's sealed shards); [`WorkerPool`] is `Pool<QueryEngine>`;
//! * [`cache`] — [`QueryCache`], a sharded LRU keyed by
//!   `(normalised query, snapshot generation)` with hit/miss/eviction
//!   counters;
//! * [`stats`] — [`ServerStats`]: a facade over the `dsearch_obs` metrics
//!   registry — counters, the connection gauge, p50/p95/p99/p99.9 latency
//!   from atomic histograms, per-stage trace recording, the slow-query log
//!   and the `!metrics` exposition;
//! * [`protocol`] / [`serve`] — the line protocol (queries, `@id` trace
//!   prefixes, `@d=<ms>` deadline budgets, `stages=` breakdowns,
//!   `!stats`/`!metrics`/`!trace`/`!slow`), the one [`LineService`] that
//!   answers it for any executor ([`Service`], [`RouteService`]), and the
//!   stdin/TCP front ends;
//! * [`route`] — distributed scatter-gather serving behind `dsearch route`:
//!   the [`route::ShardBackend`] seam ([`route::LocalShards`] in-process,
//!   [`route::RemoteShard`] over TCP) and the [`route::Router`] — the other
//!   executor — that fans queries out, merges rankings and tolerates
//!   missing shards;
//! * [`replica`] — [`replica::ReplicaSet`], what every shard of a router
//!   is (a plain backend is a set of one): one persistent worker thread per
//!   backend, a least-loaded healthy pick, a per-replica circuit breaker
//!   (closed → open → half-open probe with backoff), hedged requests
//!   against the set's rolling round-trip p99, a token-bucket retry budget
//!   that keeps hedges and failovers a bounded fraction of traffic, and the
//!   one gather that runs scatter, hedge, failover and deadline.
//!
//! # Example
//!
//! ```
//! use dsearch_index::{DocTable, InMemoryIndex};
//! use dsearch_server::{EngineConfig, IndexSnapshot, QueryEngine};
//! use dsearch_text::Term;
//!
//! let mut docs = DocTable::new();
//! let id = docs.insert("guide.txt");
//! let mut index = InMemoryIndex::new();
//! index.insert_file(id, [Term::from("rust"), Term::from("serving")]);
//!
//! let engine = QueryEngine::new(
//!     IndexSnapshot::from_index(index, docs, 1),
//!     EngineConfig::default(),
//! )
//! .expect("default config is valid");
//! let response = engine.execute("rust serving").unwrap();
//! assert_eq!(response.results.paths(), vec!["guide.txt"]);
//! assert!(!response.cached);
//! assert!(engine.execute("rust serving").unwrap().cached);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod engine;
pub mod protocol;
pub mod replica;
pub mod route;
pub mod serve;
pub mod snapshot;
pub mod stats;

pub use batch::{Answer, BatchConfig, Executor, Pending, Pool};
pub use cache::{AdmissionPolicy, CacheCounters, CacheKey, CacheKeyRef, QueryCache};
pub use engine::{
    ConfigError, EngineConfig, PendingResponse, QueryEngine, QueryResponse, ServerError, WorkerPool,
};
pub use protocol::{prefix_deadline_ms, split_request_meta, RequestMeta};
pub use replica::{ReplicaSet, ReplicaSetConfig, ReplicaState};
pub use route::{
    LocalShards, PendingRoutedResponse, RemoteShard, RemoteShardConfig, RoutedResponse, Router,
    RouterConfig, RouterPool, ShardBackend, ShardError, ShardReply,
};
pub use serve::{
    Handled, LineHandler, LineService, RouteService, Service, SessionEnd, TcpServer,
    TcpServerConfig,
};
pub use snapshot::{IndexSnapshot, SnapshotCell};
pub use stats::{DeadlineStage, Metric, ServerStats};
